"""Spans around the calls into each layer, recorded from outside the program.

Wrappers replace a layer function at every place its caller looks it up: on
the layer module for calls within the package and from the benchmark, and on
`pathfinder_ops.cli`, which binds names such as `steady_state` at import
time. numpy's `hermgauss` is wrapped on its own module, which is where
`worstcase` looks it up. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import re
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

import oracles as O


class Tracer:
    """Spans are (id, parent id, root id, name, start, end, info)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[tuple[int, int]] = []  # (span id, root id)
        self._saved: list[tuple] = []
        self._ids = 0

    def _open(self):
        self._ids += 1
        sid = self._ids
        parent, root = self._stack[-1] if self._stack else (None, sid)
        self._stack.append((sid, root))
        return sid, parent, root

    def call(self, name: str, fn, *args, info=None):
        """Run fn(*args) inside a span; `info(args, result)` may annotate it."""
        sid, parent, root = self._open()
        t0 = perf_counter()
        try:
            result = fn(*args)
        except BaseException:
            self.spans.append((sid, parent, root, name, t0, perf_counter(), None))
            raise
        finally:
            self._stack.pop()
        t1 = perf_counter()
        self.spans.append((sid, parent, root, name, t0, t1, info(args, result) if info else None))
        return result

    def wrap(self, name: str, fn, info=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kwargs:
                return self.call(name, functools.partial(fn, **kwargs), *args, info=info)
            return self.call(name, fn, *args, info=info)

        return wrapper

    def install(self, modules) -> None:
        for name, sites, info in wrap_spec(modules):
            for module, attr in sites:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, info))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, root, name, t0, t1, info in self.spans:
                handle.write(json.dumps({"id": sid, "parent": parent, "root": root, "name": name,
                                         "start": t0, "end": t1, "info": info}) + "\n")


def _sweep_info(args, rows):
    return {"cells": len(rows), "ok": sum(r.status == "ok" for r in rows)}


def _chain_sim_info(args, occupancy):
    p = args[0]
    pi = O.closed_form_pi(p.p_good, p.p_accept, p.p_success)
    return {"steps": args[1].steps, "err": float(np.abs(np.asarray(occupancy) - pi).max())}


def _batch_info(args, result):
    return {"rounds": result.rounds}


def _classify_info(args, result):
    labeled, counts = result
    return {"records": len(labeled), "fallback": sum(lr.rule == "fallback" for lr in labeled)}


def _write_info(args, result):
    return {"bytes": os.path.getsize(args[0])}


def wrap_spec(m):
    """(span name, [(module, attribute)], info) for every wrapped function.

    `m` holds the imported package modules as attributes."""
    cli, chain, ntml, simulate, worstcase, agents = m.cli, m.chain, m.ntml, m.simulate, m.worstcase, m.agents
    return [
        ("chain.sweep", [(cli, "sweep_steady_state")], _sweep_info),
        ("chain.solve", [(chain, "steady_state"), (cli, "steady_state"), (ntml, "steady_state")], None),
        ("chain.csv", [(cli, "sweep_to_csv")], None),
        ("simulate.chain", [(cli, "simulate_chain")], _chain_sim_info),
        ("simulate.batch", [(cli, "mixture_batch")], _batch_info),
        ("simulate.selection", [(simulate, "run_selection_round")], None),
        ("worstcase.w", [(cli, "worst_case_prob"), (cli, "social_worst_case_prob"),
                         (cli, "noisy_worst_case_prob"), (worstcase, "noisy_worst_case_prob")], None),
        ("worstcase.tipping", [(cli, "tipping_point"), (cli, "social_tipping_point"),
                               (cli, "noisy_tipping_point"), (worstcase, "noisy_tipping_point")], None),
        ("worstcase.gradmap", [(cli, "gradient_sign_map")], None),
        ("worstcase.gradient", [(worstcase, "tipping_point_gradient")], None),
        ("worstcase.hermgauss", [(np.polynomial.hermite, "hermgauss")], None),
        ("agents.rank", [(agents, "rank_candidates"), (simulate, "rank_candidates")], None),
        ("ntml.read", [(cli, "read_corpus_csv")], None),
        ("ntml.classify", [(cli, "classify_corpus")], _classify_info),
        ("ntml.serialize", [(cli, "labeled_to_csv")], None),
        ("ntml.calibrate", [(cli, "calibrated_steady_state")], None),
        ("ntml.generate", [(ntml, "generate_corpus")], None),
        ("fileio.write", [(cli, "atomic_write_text")], _write_info),
    ]


# --- per-pass layer metrics ---------------------------------------------------

LAYER_METRICS = [
    # (metric, unit, better)
    ("chain.sweep_s", "s", "lower"),
    ("chain.solve_calls", "count", "lower"),
    ("chain.solve_s", "s", "lower"),
    ("chain.csv_s", "s", "lower"),
    ("chain.ok_ratio", "fraction", "higher"),
    ("chain.cells", "count", "higher"),
    ("simulate.chain_s", "s", "lower"),
    ("simulate.steps_per_s", "1/s", "higher"),
    ("simulate.chain_max_err", "prob", "lower"),
    ("simulate.batch_s", "s", "lower"),
    ("simulate.rounds_per_s", "1/s", "higher"),
    ("simulate.selection_s", "s", "lower"),
    ("worstcase.w_calls", "count", "lower"),
    ("worstcase.w_s", "s", "lower"),
    ("worstcase.tipping_s", "s", "lower"),
    ("worstcase.gradmap_s", "s", "lower"),
    ("worstcase.gradient_s", "s", "lower"),
    ("worstcase.hermgauss_calls", "count", "lower"),
    ("worstcase.hermgauss_s", "s", "lower"),
    ("agents.rank_calls", "count", "lower"),
    ("agents.rank_s", "s", "lower"),
    ("ntml.read_s", "s", "lower"),
    ("ntml.classify_s", "s", "lower"),
    ("ntml.records_per_s", "1/s", "higher"),
    ("ntml.serialize_s", "s", "lower"),
    ("ntml.calibrate_s", "s", "lower"),
    ("ntml.generate_s", "s", "lower"),
    ("ntml.fallback_ratio", "fraction", "higher"),
    ("ntml.label_agreement", "fraction", "higher"),
    ("ntml.records", "count", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.error_calls", "count", "lower"),
    ("fileio.write_s", "s", "lower"),
    ("fileio.bytes", "bytes", "lower"),
]

IMPORT_MODULES = (
    "pathfinder_ops", "pathfinder_ops.agents", "pathfinder_ops.chain", "pathfinder_ops.cli",
    "pathfinder_ops.errors", "pathfinder_ops.fileio", "pathfinder_ops.ntml",
    "pathfinder_ops.simulate", "pathfinder_ops.worstcase", "scipy.special", "numpy",
)


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def pass_layers(spans, cli_roots: set[int], agreement: tuple[int, int]) -> dict[str, float]:
    """Layer metrics of one traced pass. `cli_roots` are the ids of the root
    spans that wrap CLI calls; `agreement` is (labels matching the ground
    truth, labels checked) from the pass's classify checks."""
    by_id = {s[0]: s for s in spans}
    busy, calls = defaultdict(float), defaultdict(int)
    info = defaultdict(list)
    child_time = defaultdict(float)
    for sid, parent, root, name, t0, t1, extra in spans:
        calls[name] += 1
        if extra is not None:
            info[name].append(extra)
        if parent is not None:
            child_time[parent] += t1 - t0
        up = parent
        while up is not None and by_id[up][3] != name:
            up = by_id[up][1]
        if up is None:  # outermost span of this name
            busy[name] += t1 - t0
    sweep, sims, batches, classes, writes = (info[k] for k in (
        "chain.sweep", "simulate.chain", "simulate.batch", "ntml.classify", "fileio.write"))
    cells = sum(i["cells"] for i in sweep)
    records = sum(i["records"] for i in classes)
    return {
        "chain.sweep_s": busy["chain.sweep"],
        "chain.solve_calls": calls["chain.solve"],
        "chain.solve_s": busy["chain.solve"],
        "chain.csv_s": busy["chain.csv"],
        "chain.ok_ratio": _ratio(sum(i["ok"] for i in sweep), cells),
        "chain.cells": cells,
        "simulate.chain_s": busy["simulate.chain"],
        "simulate.steps_per_s": _ratio(sum(i["steps"] for i in sims), busy["simulate.chain"]),
        "simulate.chain_max_err": max(sims, key=lambda i: i["steps"], default={"err": 0.0})["err"],
        "simulate.batch_s": busy["simulate.batch"],
        "simulate.rounds_per_s": _ratio(sum(i["rounds"] for i in batches), busy["simulate.batch"]),
        "simulate.selection_s": busy["simulate.selection"],
        "worstcase.w_calls": calls["worstcase.w"],
        "worstcase.w_s": busy["worstcase.w"],
        "worstcase.tipping_s": busy["worstcase.tipping"],
        "worstcase.gradmap_s": busy["worstcase.gradmap"],
        "worstcase.gradient_s": busy["worstcase.gradient"],
        "worstcase.hermgauss_calls": calls["worstcase.hermgauss"],
        "worstcase.hermgauss_s": busy["worstcase.hermgauss"],
        "agents.rank_calls": calls["agents.rank"],
        "agents.rank_s": busy["agents.rank"],
        "ntml.read_s": busy["ntml.read"],
        "ntml.classify_s": busy["ntml.classify"],
        "ntml.records_per_s": _ratio(records, busy["ntml.classify"]),
        "ntml.serialize_s": busy["ntml.serialize"],
        "ntml.calibrate_s": busy["ntml.calibrate"],
        "ntml.generate_s": busy["ntml.generate"],
        "ntml.fallback_ratio": _ratio(sum(i["fallback"] for i in classes), records),
        "ntml.label_agreement": _ratio(*agreement),
        "ntml.records": records,
        "cli.self_s": sum(by_id[r][5] - by_id[r][4] - child_time[r] for r in cli_roots),
        "cli.error_calls": 0,  # filled in by the runner from call outcomes
        "fileio.write_s": busy["fileio.write"],
        "fileio.bytes": sum(i["bytes"] for i in writes),
    }


# --- set-up -------------------------------------------------------------------

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)\s*$")


def import_times(env: dict, cwd: str, reps: int) -> dict[str, float]:
    """Median cumulative import time in seconds per module, from
    `python -X importtime -m pathfinder_ops --version` in fresh interpreters."""
    samples = defaultdict(list)
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "pathfinder_ops", "--version"],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=60, check=True,
        )
        seen = {}
        for line in proc.stderr.splitlines():
            match = _IMPORT_LINE.match(line)
            if match and match.group(3) in IMPORT_MODULES:
                seen[match.group(3)] = int(match.group(2)) / 1e6
        for name in IMPORT_MODULES:
            samples[name].append(seen.get(name, 0.0))
    return {f"setup.import_s.{name}": statistics.median(v) for name, v in samples.items()}
