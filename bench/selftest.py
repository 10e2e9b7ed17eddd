"""Self-test of the output checks: each check accepts the program's real
output and rejects a copy with one small corruption, so a failed_frac of 0
cannot come from checks that never fail. A corruption must be rejected as
unexpected: no corruption may pass as a known defect.

Run from the repository root:

    python3 bench/selftest.py

Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import sys

import checks as C
import run
import workloads as W


def rewrite_csv(path: str, edit) -> None:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    edit(rows)
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(buffer.getvalue())


def rewrite_json(path: str, edit) -> None:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    edit(doc)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def bump(rows, row: int, col: int, delta: float) -> None:
    rows[row][col] = repr(float(rows[row][col]) + delta)


def flip_live_cell(paths) -> None:
    """Flip the sign of one positive dW/dtheta with theta > 0 and keep
    fraction_negative consistent, so only the sign check can object."""
    summary, cells = paths

    def edit_cells(rows):
        for r in rows[1:]:
            if float(r[4]) > 0.0 and float(r[5]) > 1e-3:
                r[5] = repr(-float(r[5]))
                edit_cells.hit = (r[0], r[1])
                return
        raise AssertionError("no live positive cell")

    rewrite_csv(cells, edit_cells)
    with open(cells, encoding="utf-8", newline="") as handle:
        body = list(csv.reader(handle))[1:]
    mine = [r for r in body if (r[0], r[1]) == edit_cells.hit]
    fraction = sum(float(r[5]) < -1e-12 for r in mine) / len(mine)

    def edit_summary(rows):
        for r in rows[1:]:
            if (r[0], r[1]) == edit_cells.hit:
                r[3] = repr(fraction)

    rewrite_csv(summary, edit_summary)


def flip_label(rows) -> None:
    rows[1][3] = "Mentioned" if rows[1][3] != "Mentioned" else "Assigned"


CORRUPTIONS = {
    # call name -> [(description, corrupt(outputs, outcome))]
    "steady": [
        ("one pi entry moved by 1e-6", lambda p, o: rewrite_csv(p[0], lambda r: bump(r, 1, 3, 1e-6))),
        ("a unique cell reported non_unique",
         lambda p, o: rewrite_csv(p[0], lambda r: r.__setitem__(1, r[1][:3] + ["", "", "", "", "non_unique"]))),
    ],
    "worst": [
        ("W moved by 1e-10", lambda p, o: rewrite_csv(p[0], lambda r: bump(r, 1, 1, 1e-10))),
        ("alpha_star moved by 1e-6",
         lambda p, o: rewrite_csv(p[0], lambda r: [bump(r, i, r[0].index("alpha_star"), 1e-6) for i in range(1, len(r))])),
    ],
    "gradmap": [
        ("fraction_negative of 1.5", lambda p, o: rewrite_csv(p[0], lambda r: r[1].__setitem__(3, "1.5"))),
        ("one live dW/dtheta sign flipped", lambda p, o: flip_live_cell(p)),
    ],
    "simulate": [
        ("within_tolerance false", lambda p, o: rewrite_json(p[0], lambda d: d["chain"].__setitem__("within_tolerance", False))),
        ("all-reject rate 5 standard errors off", lambda p, o: rewrite_json(p[0], lambda d: d["selection"].__setitem__(
            "all_reject_rate", d["selection"]["analytic_all_reject"]
            + 5 * (d["selection"]["analytic_all_reject"] / d["selection"]["rounds"]) ** 0.5))),
    ],
    "classify": [
        ("one label flipped", lambda p, o: rewrite_csv(p[0], flip_label)),
        ("counts total off by one", lambda p, o: rewrite_json(p[1], lambda d: d.__setitem__("total", d["total"] + 1))),
    ],
    "gradient": [("d alpha*/d theta scaled by 1.001", lambda p, o: setattr(o, "value", [v * 1.001 for v in o.value]))],
    "selection": [("offer order reversed", lambda p, o: setattr(o, "value", [
        type(x)(x.accepted_by, x.offers_made, tuple(reversed(x.order_used))) for x in o.value]))],
    "generate": [("one generated label changed", lambda p, o: setattr(o, "value", [
        (o.value[0][0], next(lb for lb in type(o.value[0][1]) if lb is not o.value[0][1]))] + o.value[1:]))],
    "contract": [("exit code 1 with a traceback", lambda p, o: (setattr(o, "code", 1),
                                                                 setattr(o, "stderr", "Traceback ...\nValueError\n")))],
    # The known defects are excused only in the form they take.
    "contract.alpha-grid-string": [("an uncaught TypeError", lambda p, o: (setattr(o, "code", None),
                                                                          setattr(o, "error", "TypeError: bad")))],
    "contract.simulate-format-csv": [("JSON with a wrong occupancy", lambda p, o: rewrite_json(
        p[0], lambda d: d["chain"].__setitem__("occupancy", [1.0, 0.0, 0.0, 0.0])))],
}


def selftest_calls(work: str, pkg) -> list[W.Call]:
    b = W.CallList(work, 12345, pkg)
    b.steady("steady", "main", {"p_good": [0.3, 1.0], "p_accept": [0.5, 0.9], "p_success": [0.0, 0.7]})
    b.worst("worst", "main", {
        "worst_case": dict(W.SCENARIO, alpha_grid=[0.1, 0.5, 0.9]),
        "social": {"s": 0.5, "gamma": 2.5, "r": 0.5},
        "noise": {"kind": "gaussian", "theta": 1.0},
    })
    b.gradmap("gradmap", "main", {"gradmap": {"n_values": [5], "u_abs_values": [2.0], "alpha_grid": [0.2, 0.6],
                                              "theta_grid": [0.0, 0.4, 1.2]},
                                  "noise": {"kind": "gaussian", "theta": 1.0}})
    b.simulate("simulate", "main", {
        "chain": {"p_good": 0.5, "p_accept": 0.81, "p_success": 0.87},
        "worst_case": dict(W.SCENARIO, n=3, u_minus=-1.0, u_plus=1.0),
        "sim": {"seed": 7, "steps": 200_000, "burn_in": 100, "rounds": 20_000, "alpha": 0.7},
    })
    b.classify("classify", "main", 200)
    b.gradient_sweep("gradient", "main", W.SCENARIO, "gaussian", [0.5, 1.0])
    b.selection_sweep("selection", "main", 8, 3)
    b.generate("generate", "main", 50)
    b.contract()
    return [c for c in b.calls if c.name in CORRUPTIONS or c.name == "contract.unknown-key"]


def verdict(call: W.Call, outcome) -> tuple[str, str]:
    try:
        call.check(outcome)
    except C.KnownDefect as exc:
        return "known", str(exc)
    except C.CheckFailed as exc:
        return "failed", str(exc)
    return "passed", ""


def main() -> int:
    pkg = run.load_package()
    work = os.path.join(run.ROOT, ".bench_work", f"selftest-{os.getpid()}")
    os.makedirs(work)
    bad = 0
    try:
        for call in selftest_calls(work, pkg):
            key = call.name if call.name in CORRUPTIONS else "contract" if call.role == "contract" else call.name
            outcome, _ = run.execute(call, pkg, None)
            result, reason = verdict(call, outcome)
            if result == "failed":
                print(f"FAIL {call.name}: check rejects the real output: {reason}")
                bad += 1
                continue
            if result == "known":
                print(f"ok   {call.name}: real output is the known defect ({reason})")
            for description, corrupt in CORRUPTIONS[key]:
                outcome, _ = run.execute(call, pkg, None)
                corrupt(call.outputs, outcome)
                result, reason = verdict(call, outcome)
                if result == "failed":
                    print(f"ok   {call.name}: rejects {description} ({reason})")
                else:
                    print(f"FAIL {call.name}: {result} with {description}")
                    bad += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest", "failed" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
