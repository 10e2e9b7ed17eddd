"""Independent test oracles.

Everything here deliberately avoids the code paths it checks: exact
rational elimination on the balance system and power iteration instead of
the closed-form stationary distribution, a reachability graph instead of
the parameter rule for uniqueness, the explicit binomial summation
instead of the closed-form power, plain Monte Carlo with numpy's default
generator instead of quadrature, the per-agent offer walk and an exact
enumeration instead of three-draw offer rounds, central differences for
derivatives, per-keyword regular expressions instead of substring tests
on normalized text, the per-record labeled-CSV pipeline (a parsed
datetime, a regex label and one written row per record) instead of the
columnar one, a fresh array per operation instead of the gradient map's
reused work arrays, and a writer that formats each field of each row on
its own instead of distinct values and grid tables filled through one `%`
template, and yes/no predicates per config key instead of checks that
return the value.
"""

import csv
import io
import math
import re
from collections import Counter
from datetime import datetime
from fractions import Fraction

import numpy as np
from scipy.special import expit

from pathfinder_ops.errors import integer, number


def power_iteration(matrix, tol=1e-12, max_iter=10**6):
    """Stationary distribution by left power iteration from uniform."""
    matrix = np.asarray(matrix, dtype=float)
    pi = np.full(matrix.shape[0], 1.0 / matrix.shape[0])
    for _ in range(max_iter):
        nxt = pi @ matrix
        if np.abs(nxt - pi).sum() < tol:
            return nxt / nxt.sum()
        pi = nxt
    raise RuntimeError("power iteration did not converge")


def exact_transition_matrix(g, a, s):
    """The gate chain's 4x4 transition matrix as lists of Fractions: each
    float probability is the rational number it represents, and its
    complement is exact."""
    g, a, s = (Fraction(x) for x in (g, a, s))
    return [
        [1 - g, g, 0, 0],
        [0, 1 - a, a, 0],
        [1 - s, 0, 0, s],
        [1 - g, 0, 0, g],
    ]


def exact_stationary(matrix):
    """pi with pi P = pi and sum(pi) = 1, by Gauss-Jordan elimination on the
    dense balance system stacked on the normalization row, in exact rational
    arithmetic. Returns a list of Fractions, or None when the system has
    rank below n, i.e. the stationary distribution is not unique."""
    n = len(matrix)
    rows = [[Fraction(matrix[i][j]) - (i == j) for i in range(n)] + [Fraction(0)] for j in range(n)]
    rows.append([Fraction(1)] * (n + 1))
    for col in range(n):
        pivot = next((r for r in range(col, n + 1) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n + 1):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [rows[i][n] for i in range(n)]


def closed_class_count(matrix):
    """Number of closed communicating classes, from the reachability graph
    of the positive entries (Warshall's transitive closure). The stationary
    distribution is unique exactly when this is 1."""
    n = len(matrix)
    reach = [[i == j or matrix[i][j] > 0 for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                reach[i] = [x or y for x, y in zip(reach[i], reach[k])]
    closed = {
        frozenset(j for j in range(n) if reach[i][j])
        for i in range(n)
        if all(reach[j][i] for j in range(n) if reach[i][j])
    }
    return len(closed)


def binomial_sum_w(n, alpha, p_rej, p_rec):
    """All-reject probability as the explicit sum over rejective-group sizes."""
    total = 0.0
    for k in range(n + 1):
        total += (
            math.comb(n, k)
            * alpha**k
            * (1.0 - alpha) ** (n - k)
            * p_rej**k
            * p_rec ** (n - k)
        )
    return total


def per_agent_rounds(n, alpha, p_rej, p_rec, rounds, seed):
    """(all_reject, offers), one entry per offer round, by the per-agent
    walk: each agent is rejective with probability alpha, a stable sort puts
    the receptive agents first, and offers go down that order until the
    first acceptance (all n offers when every agent rejects)."""
    rng = np.random.default_rng(seed)
    rejective = rng.random((rounds, n)) < alpha
    order = np.argsort(rejective, axis=1, kind="stable")
    rejective_sorted = np.take_along_axis(rejective, order, axis=1)
    accepts = rng.random((rounds, n)) >= np.where(rejective_sorted, p_rej, p_rec)
    any_accept = accepts.any(axis=1)
    offers = np.where(any_accept, accepts.argmax(axis=1) + 1, n)
    return ~any_accept, offers


def _offers_survival(n, alpha, p_rej, p_rec):
    """P(offers > j) for j = 0, ..., n - 1, i.e. the probability that the
    first j offers of a round are all rejected: with k rejective agents the
    n - k receptive ones are offered first, summed over k."""
    survival = [0.0] * n
    for k in range(n + 1):
        weight = math.comb(n, k) * alpha**k * (1.0 - alpha) ** (n - k)
        receptive = n - k
        for j in range(n):
            survival[j] += (
                weight * p_rec ** min(j, receptive) * p_rej ** max(0, j - receptive)
            )
    return survival


def exact_mean_offers(n, alpha, p_rej, p_rec):
    """E[offers made in a round] = sum over j of P(offers > j)."""
    return sum(_offers_survival(n, alpha, p_rej, p_rec))


def exact_offers_variance(n, alpha, p_rej, p_rec):
    """Var[offers made in a round], from E[X^2] = sum over j of
    (2j + 1) P(X > j)."""
    survival = _offers_survival(n, alpha, p_rej, p_rec)
    second = sum((2 * j + 1) * q for j, q in enumerate(survival))
    return second - sum(survival) ** 2


def mc_gaussian_w(n, u_minus, u_plus, beta, sigma, alpha, draws, seed):
    """(mean, standard error) of the shared-noise all-reject probability,
    straight Monte Carlo over the shared shift."""
    rng = np.random.default_rng(seed)
    xi = rng.normal(0.0, sigma, draws)
    mixture = alpha * expit(-beta * (u_minus + xi)) + (1.0 - alpha) * expit(
        -beta * (u_plus + xi)
    )
    values = mixture**n
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(draws))


def closed_form_pi(g, a, s):
    """Hand-solved stationary distribution for interior parameters.

    From the balance equations: pi1 = (g/a) pi0, pi2 = g pi0,
    pi3 = s g pi0 / (1 - g), then normalize. This is the library's own
    formula in another arrangement, so it is a consistency check only;
    `exact_stationary` is the independent one.
    """
    pi0 = 1.0 / (1.0 + g / a + g + s * g / (1.0 - g))
    return np.array([pi0, g / a * pi0, g * pi0, s * g / (1.0 - g) * pi0])


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def expected_visit_counts(matrix, steps, burn_in):
    """Expected visits to each state among X_{burn_in+1}, ..., X_steps of
    the chain started at X_0 = state 0, i.e. the states entered by the
    transitions t = burn_in, ..., steps - 1: the sum of row 0 of P^(t+1)
    over that range, by explicit matrix powers."""
    matrix = np.asarray(matrix, dtype=float)
    return sum(
        np.linalg.matrix_power(matrix, t + 1)[0] for t in range(burn_in, steps)
    )


def deterministic_walk_occupancy(matrix, steps, burn_in):
    """Occupancy of a chain whose every row is a unit vector, walked one
    step at a time from state 0 with the first burn_in visited states
    dropped."""
    matrix = np.asarray(matrix, dtype=float)
    assert np.all((matrix == 0.0) | (matrix == 1.0)), "chain is not deterministic"
    successor = matrix.argmax(axis=1)
    counts = np.zeros(matrix.shape[0])
    state = 0
    for t in range(steps):
        state = successor[state]
        if t >= burn_in:
            counts[state] += 1
    return counts / (steps - burn_in)


# --- log classification -----------------------------------------------------

LABEL_PRECEDENCE = ("Failed", "Rejected", "Assigned", "Requested")


def regex_normalize(text):
    """Lowercase, drop the three apostrophes, turn every character outside
    [a-z0-9] and whitespace into a space, collapse whitespace: one regex per
    step."""
    t = text.lower().translate(str.maketrans({"’": "", "‘": "", "'": ""}))
    t = re.sub(r"[^a-z0-9\s]", " ", t)
    return re.sub(r"\s+", " ", t).strip()


def regex_classify(comment, doc):
    """(label, rule id) of a comment under a rules document (the parsed
    JSON), matching each keyword as `\\b<normalized keyword>\\b`; the flight
    pattern gates Assigned."""
    text = regex_normalize(comment)
    has_flight = re.search(doc["flight_number_pattern"], text) is not None
    for label in LABEL_PRECEDENCE:
        if label == "Assigned" and not has_flight:
            continue
        for raw in doc["labels"][label]:
            if re.search(r"\b" + re.escape(regex_normalize(raw)) + r"\b", text):
                return label, f"{label.lower()}:{raw}"
    return "Mentioned", "fallback"


def oracle_labeled_csv(path, doc):
    """(labeled CSV text, Counter of label names) that `classify` should
    write for the corpus CSV at `path` under a rules document: each record
    on its own, its timestamp parsed and printed by `datetime.isoformat()`,
    its comment labeled by `regex_classify`, and one `writerow` per row."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = [row for row in csv.reader(handle) if row]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["timestamp", "facility", "comment", "label", "rule"])
    tally = Counter()
    for stamp, facility, comment in rows[1:]:
        label, rule = regex_classify(comment, doc)
        tally[label] += 1
        when = datetime.fromisoformat(stamp.replace("Z", "+00:00"))
        writer.writerow([when.isoformat(), facility, comment, label, rule])
    return buffer.getvalue(), tally


# --- gradient map and grid tables ---------------------------------------------


def _per_op_logistic(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def per_op_partials(n, u_minus, u_plus, beta, alphas, shifts, slopes, weights):
    """(dW/dalpha, dW/dtheta) for alphas against a shift law, one fresh
    array per operation, in the order the library's kernel does them."""
    p_rej = _per_op_logistic(-beta * (u_minus + shifts))
    p_rec = _per_op_logistic(-beta * (u_plus + shifts))
    a = np.asarray(alphas, dtype=float)[..., None]
    m = a * p_rej + (1.0 - a) * p_rec
    power = m ** (n - 1)
    q_rej, q_rec = p_rej * (1.0 - p_rej), p_rec * (1.0 - p_rec)
    d_alpha = n * ((power * (p_rej - p_rec)) @ weights)
    spread = q_rec + a * (q_rej - q_rec)
    d_theta = -beta * n * ((power * spread) @ (slopes * weights))
    return d_alpha, d_theta


def per_op_dw_dtheta(
    n_values, u_abs_values, alphas, thetas, nodes, weights, block_values, beta=1.0
):
    """The gradient map's dW/dtheta array, shape (n, |U|, theta, alpha):
    blocks of at most `block_values` alpha x theta x node values, as the map
    takes them, each evaluated by `per_op_partials` and joined by
    concatenation."""
    alphas = np.asarray(alphas, dtype=float).ravel() + 0.0
    thetas = np.asarray(thetas, dtype=float).ravel() + 0.0
    a_step = max(1, block_values // nodes.size)
    t_step = max(1, block_values // (min(alphas.size, a_step) * nodes.size))
    alpha_blocks = [alphas[i : i + a_step, None] for i in range(0, alphas.size, a_step)]
    shift_blocks = [thetas[i : i + t_step, None] * nodes for i in range(0, thetas.size, t_step)]
    grads = []
    for n in n_values:
        for u in u_abs_values:
            u = float(u)
            grad = np.concatenate([
                np.concatenate([
                    per_op_partials(int(n), -u, u, beta, block, shifts, nodes, weights)[1]
                    for shifts in shift_blocks
                ], axis=1)
                for block in alpha_blocks
            ])
            grad[:, thetas == 0.0] = 0.0
            grads.append(grad.T)
    return np.array(grads).reshape(len(n_values), len(u_abs_values), thetas.size, alphas.size)


def _field_text(value) -> str:
    """One CSV field on its own: 12 significant digits for a float, an
    empty field for NaN and None, str() for anything else."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return f"{float(value):.12g}" if isinstance(value, float) else str(value)


def per_value_csv(header, rows) -> str:
    """CSV text with a trailing newline, every field of every row formatted
    by itself."""
    lines = [",".join(header), *(",".join(map(_field_text, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def _instances(gmap):
    return [(n, u) for n in gmap.n_values for u in list(gmap.u_abs_values)]


def per_value_summary_csv(gmap):
    """The gradient map's summary CSV, one row per (n, |U|) instance."""
    fractions = list(np.ravel(gmap.fraction_negative))
    rows = [(n, u, gmap.noise_kind.value, f) for (n, u), f in zip(_instances(gmap), fractions)]
    return per_value_csv("n,u_abs,noise_kind,fraction_negative".split(","), rows)


def per_value_cells_csv(gmap):
    """The gradient map's per-cell CSV: one row per cell, its n, |U| and
    noise kind repeated on each, theta-major within an instance."""
    grads = np.reshape(gmap.dw_dtheta, (-1, len(gmap.thetas), len(gmap.alphas)))
    rows = [
        (n, u, gmap.noise_kind.value, a, t, grad[k][l])
        for (n, u), grad in zip(_instances(gmap), grads)
        for k, t in enumerate(list(gmap.thetas))
        for l, a in enumerate(list(gmap.alphas))
    ]
    return per_value_csv("n,u_abs,noise_kind,alpha,theta,dw_dtheta".split(","), rows)


def per_value_sweep_csv(records):
    """The sweep CSV, one row per record."""
    rows = [
        (g, a, s, *pi, status)
        for g, a, s, pi, status in zip(
            *(list(records[name]) for name in ("p_good", "p_accept", "p_success", "pi", "status"))
        )
    ]
    return per_value_csv("p_good,p_accept,p_success,pi0,pi1,pi2,pi3,status".split(","), rows)


# --- which config values each key accepts ------------------------------------


def _accepts(check, value) -> bool:
    """Whether `check` (errors.number or errors.integer) takes `value`."""
    try:
        check("value", value)
    except ValueError:
        return False
    return True


def _each(check):
    return lambda v: type(v) is list and bool(v) and all(_accepts(check, x) for x in v)


_NUMBER = lambda v: _accepts(number, v)  # noqa: E731
_INTEGER = lambda v: _accepts(integer, v)  # noqa: E731
_NUMBERS = _each(number)
_GRID = lambda v: _NUMBER(v) or _NUMBERS(v)  # noqa: E731
_KIND = lambda v: isinstance(v, str) and v.lower() in ("rademacher", "gaussian")  # noqa: E731

# section -> key -> whether a value is accepted there.
CONFIG_PREDICATES = {
    "chain": {"p_good": _GRID, "p_accept": _GRID, "p_success": _GRID},
    "worst_case": {
        "n": _INTEGER, "u_minus": _NUMBER, "u_plus": _NUMBER, "beta": _NUMBER, "delta": _NUMBER,
        "alpha_grid": _NUMBERS,
    },
    "social": {"s": _NUMBER, "gamma": _NUMBER, "r": _NUMBER},
    "noise": {"kind": _KIND, "theta": _NUMBER, "gh_nodes": _INTEGER},
    "sim": {"seed": _INTEGER, "steps": _INTEGER, "burn_in": _INTEGER, "rounds": _INTEGER,
            "alpha": _NUMBER},
    "gradmap": {
        "n_values": _each(integer), "u_abs_values": _NUMBERS, "alpha_grid": _NUMBERS,
        "theta_grid": _NUMBERS, "beta": _NUMBER,
    },
}
