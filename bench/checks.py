"""Output checks. Each raises CheckFailed with a reason when an output is
wrong; the reference values come from `oracles`, never from the program.

Byte digests of outputs are reported for information only: planned changes
to the program alter random streams and fix the theta = 0 gradient, so
bytes may change while results stay correct.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import oracles as O

STEADY_HEADER = ["p_good", "p_accept", "p_success", "pi0", "pi1", "pi2", "pi3", "status"]
STATIONARY_TOL = 1e-10  # stationarity residual, as documented for steady_state
CLOSED_FORM_TOL = 1e-9
W_TOL = 1e-12  # printed values carry 12 significant digits
NOISY_W_TOL = 1e-9
TIPPING_TOL = 1e-10 + 1e-11  # documented |W - delta| plus printing round-off
LIVE_GRADIENT = 1e-6
# The program's Gauss-Hermite rule (61 nodes) under-resolves W for large
# theta: on the default gradmap grid, 173 live cells, all at theta >= 5.2,
# get the wrong dW/dtheta sign. Fewer such cells is a fix; more, or any at
# a smaller theta, is a regression.
GH_DEFECT_THETA = 5.2
GH_DEFECT_CELLS = 173


class CheckFailed(Exception):
    """`stats` carries what the check measured before it failed."""

    def __init__(self, message: str, stats=None):
        super().__init__(message)
        self.stats = stats


class KnownDefect(CheckFailed):
    """A wrong output that matches, in kind and in extent, a defect the
    program had when this benchmark was written. It still counts as a
    failed call, but does not make the run incorrect; any other failure of
    the same call does."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def read_text(path: str) -> str:
    with open(path, encoding="utf-8", newline="") as handle:
        return handle.read()


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _key(*values) -> tuple:
    return tuple(round(float(v), 9) for v in values)


# --- steady -------------------------------------------------------------------


def check_pi_table(rows: list[list[str]], expect_cells, expect_non_unique) -> int:
    """Rows of a sweep CSV (header removed). Returns the number of ok rows."""
    cells = [_key(*r[:3]) for r in rows]
    require(len(set(cells)) == len(cells), "duplicate sweep cells")
    require(set(cells) == expect_cells, f"cell set differs: {len(cells)} rows, {len(expect_cells)} expected")
    non_unique = {c for c, r in zip(cells, rows) if r[7] == "non_unique"}
    require(non_unique == expect_non_unique, f"non_unique cells differ: {sorted(non_unique ^ expect_non_unique)[:3]}")
    ok = [r for r in rows if r[7] == "ok"]
    require(len(ok) + len(non_unique) == len(rows), "unknown status value")
    require(all(all(x == "" for x in r[3:7]) for r in rows if r[7] == "non_unique"), "non_unique row carries pi")
    if not ok:
        return 0
    arr = np.array([[float(x) for x in r[:7]] for r in ok])
    g, a, s, pi = arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3:7]
    require(np.all(pi >= 0.0), "negative stationary probability")
    require(np.all(np.abs(pi.sum(axis=1) - 1.0) <= CLOSED_FORM_TOL), "pi does not sum to 1")
    residual = np.abs(np.einsum("ci,cij->cj", pi, O.transition_matrices(g, a, s)) - pi).max(axis=1)
    worst = int(residual.argmax())
    require(residual[worst] <= STATIONARY_TOL, f"stationarity residual {residual[worst]:.3e} at {ok[worst][:3]}")
    interior = (g < 1.0) & (a > 0.0)
    gap = np.abs(pi[interior] - O.closed_form_pi(g[interior], a[interior], s[interior])).max(axis=1, initial=0.0)
    require(gap.size == 0 or gap.max() <= CLOSED_FORM_TOL, f"closed-form gap {gap.max():.3e}")
    return len(ok)


def check_steady(path: str, g_grid, a_grid, s_grid) -> None:
    rows = _rows(read_text(path))
    require(rows and rows[0] == STEADY_HEADER, "steady CSV header")
    cells = {_key(g, a, s) for g in g_grid for a in a_grid for s in s_grid}
    # Gate Opened is absorbing when p_good = 1, and with p_success = 0 the
    # other three states form a second closed class.
    non_unique = {c for c in cells if c[0] == 1.0 and c[2] == 0.0}
    check_pi_table(rows[1:], cells, non_unique)


# --- worst --------------------------------------------------------------------


def check_worst(path: str, cfg: dict, alphas) -> None:
    wc = cfg["worst_case"]
    n, um, up, beta, delta = wc["n"], wc["u_minus"], wc["u_plus"], wc["beta"], wc["delta"]
    rows = _rows(read_text(path))
    require(len(rows) == len(alphas) + 1, f"worst: {len(rows) - 1} rows for {len(alphas)} alphas")
    header = rows[0]
    table = [dict(zip(header, r)) for r in rows[1:]]

    variants = {"": (0.0, None)}  # column suffix -> (utility shift, noise)
    if "social" in cfg:
        soc = cfg["social"]
        variants["_social"] = ((1 - soc["s"]) * soc["gamma"] * soc["r"], None)
    if "noise" in cfg:
        variants["_noisy"] = (0.0, cfg["noise"])
    expected_header = ["alpha", "W"] + [f"W{k}" for k in variants if k] + [f"alpha_star{k}" for k in variants]
    require(header == expected_header, f"worst header {header}")

    for suffix, (shift, noise) in variants.items():
        if noise is None:
            p_rej, p_rec = (float(p) for p in O.reject_probs(um, up, beta, shift))
            w = lambda a, p_rej=p_rej, p_rec=p_rec: O.binomial_w(n, a, p_rej, p_rec)
            tol = W_TOL
        else:
            kind, theta = noise["kind"], noise.get("theta", 0.0)
            w = lambda a, kind=kind, theta=theta: float(O.noisy_w(n, um, up, beta, kind, theta, a))
            tol = NOISY_W_TOL
        col = "W" + suffix
        for a, row in zip(alphas, table):
            require(abs(float(row["alpha"]) - a) <= 1e-12, "worst: alpha column")
            got = float(row[col])
            require(abs(got - w(a)) <= tol, f"worst: {col}({a}) = {got!r}, reference {w(a)!r}")
        stars = {row[f"alpha_star{suffix}"] for row in table}
        require(len(stars) == 1, f"alpha_star{suffix} varies across rows")
        star = stars.pop()
        root = O.root_alpha(w, delta)
        if star == "":
            require(root is None or root in (0.0, 1.0), f"alpha_star{suffix} missing but a root exists at {root}")
        else:
            gap = abs(w(float(star)) - delta)
            require(gap <= TIPPING_TOL, f"alpha_star{suffix} = {star}: |W - delta| = {gap:.3e}")


# --- gradmap ------------------------------------------------------------------


def check_gradmap(summary_path: str, cells_path: str, cfg: dict, expected_rows) -> None:
    """`expected_rows` is the list of (n, u_abs) pairs; every cell with
    theta > 0 and a gradient beyond LIVE_GRADIENT must agree in sign with a
    central difference of the reference W."""
    kind = cfg.get("noise", {}).get("kind", "rademacher")
    rows = _rows(read_text(summary_path))
    require(rows[0] == ["n", "u_abs", "noise_kind", "fraction_negative"], "gradmap header")
    got = {(int(r[0]), round(float(r[1]), 9)): float(r[3]) for r in rows[1:]}
    require(len(got) == len(rows) - 1, "duplicate gradmap rows")
    require(set(got) == {(n, round(u, 9)) for n, u in expected_rows}, "gradmap row set")
    require(all(r[2] == kind for r in rows[1:]), "gradmap noise_kind column")
    require(all(0.0 <= f <= 1.0 for f in got.values()), "fraction_negative outside [0, 1]")

    cells = _rows(read_text(cells_path))
    require(cells[0] == ["n", "u_abs", "noise_kind", "alpha", "theta", "dw_dtheta"], "cells header")
    arr = np.array([[float(x) for i, x in enumerate(r) if i != 2] for r in cells[1:]])
    h = 1e-4
    wrong_cells, first = 0, None
    for (n, u), fraction in got.items():
        mine = arr[(arr[:, 0] == n) & (np.round(arr[:, 1], 9) == u)]
        require(mine.size > 0, f"no cells for n={n}, u={u}")
        negative = np.count_nonzero(mine[:, 4] < -1e-12) / len(mine)
        require(abs(negative - fraction) <= 1e-12, f"fraction_negative {fraction} vs cells {negative}")
        live = mine[(mine[:, 3] > 0.0) & (np.abs(mine[:, 4]) > LIVE_GRADIENT)]
        for theta in np.unique(live[:, 3]):
            at = live[live[:, 3] == theta]
            hi = O.noisy_w(int(n), -u, u, 1.0, kind, theta + h, at[:, 2])
            lo = O.noisy_w(int(n), -u, u, 1.0, kind, theta - h, at[:, 2])
            ref = (hi - lo) / (2 * h)
            wrong = np.sign(ref) != np.sign(at[:, 4])
            if wrong.any():
                wrong_cells += int(wrong.sum())
                if first is None or theta < first[0]:
                    first = (theta, n, u, at[wrong][0][2], at[wrong][0][4], ref[wrong][0])
    if first is None:
        return
    theta, n, u, alpha, got_dw, ref_dw = first
    message = (f"{wrong_cells} dW/dtheta signs differ from the reference; smallest theta {theta}: "
               f"n={n} u={u} alpha={alpha} {got_dw:.3e} vs {ref_dw:.3e}")
    if kind == "gaussian" and theta >= GH_DEFECT_THETA and wrong_cells <= GH_DEFECT_CELLS:
        raise KnownDefect(message)
    raise CheckFailed(message)


# --- simulate -----------------------------------------------------------------


def check_simulate(path: str, cfg: dict) -> None:
    text = read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"simulate output is not JSON: {exc}")
    sim = cfg["sim"]
    if "steps" in sim:
        block = doc["chain"]
        ch = cfg["chain"]
        occ = np.array(block["occupancy"])
        require(block["steps"] == sim["steps"] and block["burn_in"] == sim.get("burn_in", 0), "chain echo")
        require(occ.shape == (4,) and np.all(occ >= 0) and abs(occ.sum() - 1.0) <= 1e-9, "occupancy")
        pi = O.closed_form_pi(ch["p_good"], ch["p_accept"], ch["p_success"])
        require(np.abs(occ - pi).max() <= 0.25, f"occupancy {occ} far from {pi}")
        error = float(np.abs(occ - pi).max())
        require(np.abs(np.array(block["analytic_pi"]) - pi).max() <= CLOSED_FORM_TOL, "analytic_pi")
        require(abs(block["max_abs_error"] - error) <= 1e-12, "max_abs_error")
        if sim["steps"] >= 10**5:
            require(block["within_tolerance"] is True, f"within_tolerance is false (error {error:.3e})")
        else:
            require(block["within_tolerance"] is (error <= 0.01), "within_tolerance flag")
    if "rounds" in sim:
        block = doc["selection"]
        wc = cfg["worst_case"]
        p_rej, p_rec = (float(p) for p in O.reject_probs(wc["u_minus"], wc["u_plus"], wc["beta"]))
        w = O.binomial_w(wc["n"], sim["alpha"], p_rej, p_rec)
        rounds = sim["rounds"]
        require(block["rounds"] == rounds, "rounds echo")
        require(abs(block["analytic_all_reject"] - w) <= W_TOL, "analytic_all_reject")
        se = math.sqrt(w * (1 - w) / rounds)
        z = abs(block["all_reject_rate"] - w) / se
        require(z <= 4.0, f"all-reject rate {block['all_reject_rate']} is {z:.1f} standard errors from {w}")
        require(1.0 <= block["mean_offers"] <= wc["n"], "mean_offers")


def check_simulate_csv(path: str, cfg: dict) -> None:
    """A `--format csv` request must produce a CSV table. The program
    writes its JSON result instead; that is a known defect only if the JSON
    itself passes `check_simulate`."""
    text = read_text(path)
    if text.lstrip().startswith("{"):
        check_simulate(path, cfg)
        raise KnownDefect("asked for CSV, got JSON")
    rows = _rows(text)
    require(len(rows) >= 2 and all(len(r) == len(rows[0]) for r in rows), "not a CSV table")


# --- classify -----------------------------------------------------------------


def truth_params(labels) -> tuple[float, float]:
    req, fail, rej = (labels.count(k) for k in ("Requested", "Failed", "Rejected"))
    return (req + fail) / (req + fail + rej), req / (req + fail)


def check_classify(out: str, corpus, g_grid) -> tuple[int, int]:
    """Returns (labels equal to the ground truth, rows)."""
    rows = _rows(read_text(out))
    require(rows[0] == ["timestamp", "facility", "comment", "label", "rule"], "labeled CSV header")
    body = rows[1:]
    require(len(body) == len(corpus.labels), f"{len(body)} labeled rows for {len(corpus.labels)} records")
    agreement = (sum(row[3] == label for row, label in zip(body, corpus.labels)), len(body))
    for i, (row, *truth) in enumerate(zip(body, corpus.timestamps, corpus.facilities, corpus.comments, corpus.labels)):
        if row[:4] != truth:
            raise CheckFailed(f"row {i + 1}: {row[:4]} differs from the input or its label {truth[3]}", agreement)
    stem = out[: -len(".csv")]
    counts = json.loads(read_text(stem + ".counts.json"))
    require(counts["total"] == len(body), "counts total differs from row count")
    names = {"Assigned": "n_assigned", "Requested": "n_requested", "Rejected": "n_rejected", "Failed": "n_failed", "Mentioned": "n_mentioned"}
    for label, key in names.items():
        require(counts[key] == corpus.labels.count(label), f"{key} = {counts[key]}")
    require(sum(counts[k] for k in names.values()) == counts["total"], "counts do not add up")
    p_accept, p_success = truth_params(list(corpus.labels))
    params = json.loads(read_text(stem + ".params.json"))
    require(abs(params["p_accept"] - p_accept) <= 1e-15 and abs(params["p_success"] - p_success) <= 1e-15, "params")
    steady = _rows(read_text(stem + ".steady.csv"))
    require(steady[0] == STEADY_HEADER, "calibrated steady header")
    cells = {_key(g, p_accept, p_success) for g in g_grid}
    try:
        check_pi_table(steady[1:], cells, set())
    except CheckFailed as exc:
        raise CheckFailed(f"calibrated sweep: {exc}", agreement)
    return agreement


# --- library calls ------------------------------------------------------------


def check_tipping_gradient(value: float, scn: dict, kind: str, theta: float) -> None:
    """Compare d(alpha*)/d(theta) with a central difference of the
    reference root."""
    n, um, up, beta, delta = (scn[k] for k in ("n", "u_minus", "u_plus", "beta", "delta"))

    def star(t):
        return O.root_alpha(lambda a: float(O.noisy_w(n, um, up, beta, kind, t, a)), delta)

    h = 1e-4
    ref = (star(theta + h) - star(theta - h)) / (2 * h)
    require(abs(value - ref) <= 1e-5 + 1e-4 * abs(ref), f"d alpha*/d theta = {value!r}, reference {ref!r}")


def check_selection(outcome, pool: list[dict], d_ideal: float) -> None:
    def payoff(c):
        p = c["profile"]
        u = p["reward"] - p["participation_cost"] - (1 - p["p_success_i"]) * p["failure_cost"]
        return float(O.logistic(p["beta"] * u)) * c["epsilon"] * d_ideal

    order = [c["profile"]["id"] for c in sorted(pool, key=lambda c: (-payoff(c), c["profile"]["id"]))]
    require(list(outcome.order_used) == order, "offer order is not payoff-descending")
    require(1 <= outcome.offers_made <= len(order), "offers_made out of range")
    if outcome.accepted_by is None:
        require(outcome.offers_made == len(order), "all rejected but offers stopped early")
    else:
        require(outcome.accepted_by == order[outcome.offers_made - 1], "accepted_by is not the last offer")


def check_generated(records, size: int) -> None:
    require(len(records) == size, f"{len(records)} records for size {size}")
    stamps = [r.timestamp for r, _ in records]
    require(all(a < b for a, b in zip(stamps, stamps[1:])), "timestamps not increasing")
    for i, (record, label) in enumerate(records):
        if O.rule_label(record.comment) != label.value:
            raise CheckFailed(f"generated record {i}: {record.comment!r} carries label {label.value}")


def check_rejected(code, stderr: str) -> None:
    """The CLI contract for a bad request: exit 2, one error[...] line."""
    lines = stderr.splitlines()
    require(code == 2, f"exit code {code}, expected 2")
    require(len(lines) == 1 and lines[0].startswith("error["), f"stderr {stderr[:120]!r}")
