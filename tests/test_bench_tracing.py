"""The benchmark's tracer (bench/tracing.py) wraps package functions by name
and reads their results in its info hooks. A renamed function or a changed
return type breaks `bench/run.py --trace 1`; these tests catch that here."""

import importlib
import json
import os
import sys
from types import SimpleNamespace

import pytest

import pathfinder_ops.agents as agents
import pathfinder_ops.chain as chain
import pathfinder_ops.cli as cli
import pathfinder_ops.ntml as ntml
import pathfinder_ops.simulate as simulate
import pathfinder_ops.worstcase as worstcase

from test_cli import project_fixture, write_config

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
# tests/ and bench/ each have an `oracles` module; the tracer needs bench's.
BENCH_MODULES = ("tracing", "oracles")

SCENARIO = {"n": 4, "u_minus": -1.5, "u_plus": 1.5, "beta": 1.0, "delta": 0.1}


@pytest.fixture
def tracing():
    saved = {name: sys.modules.pop(name, None) for name in BENCH_MODULES}
    sys.path.insert(0, BENCH)
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(BENCH)
        for name, module in saved.items():
            sys.modules.pop(name, None)
            if module is not None:
                sys.modules[name] = module


def tiny_calls(tmp_path):
    """One small call of each subcommand, writing every output file."""
    corpus, _ = project_fixture(tmp_path)

    def out(name):
        return str(tmp_path / name)

    steady = write_config(tmp_path, {"chain": {"p_good": [0.5, 1.0], "p_accept": 0.5,
                                               "p_success": [0.0, 0.5]}}, "steady.json")
    worst = write_config(tmp_path, {"worst_case": dict(SCENARIO, alpha_grid=[0.0, 0.5, 1.0]),
                                    "social": {"s": 0.5, "gamma": 2.5, "r": 0.5},
                                    "noise": {"kind": "gaussian", "theta": 1.0}}, "worst.json")
    gradmap = write_config(tmp_path, {"gradmap": {"n_values": [3], "u_abs_values": [1.0],
                                                  "alpha_grid": [0.0, 0.5],
                                                  "theta_grid": [0.0, 1.0]}}, "gradmap.json")
    sim = write_config(tmp_path, {"chain": {"p_good": 0.5, "p_accept": 0.81, "p_success": 0.87},
                                  "worst_case": SCENARIO,
                                  "sim": {"seed": 7, "steps": 1000, "rounds": 100, "alpha": 0.5}},
                       "sim.json")
    return [
        ["steady", "--config", steady, "--out", out("steady.csv")],
        ["worst", "--config", worst, "--out", out("worst.csv")],
        ["gradmap", "--config", gradmap, "--out", out("g.csv"), "--cells-out", out("cells.csv")],
        ["classify", corpus, "--out", out("labels.csv"), "--calibrate"],
        ["simulate", "--config", sim, "--out", out("sim-out.json"), "--compare-analytic"],
    ]


def test_tracer_wraps_the_package_and_every_info_hook_runs(tracing, tmp_path):
    modules = SimpleNamespace(agents=agents, chain=chain, cli=cli, ntml=ntml,
                              simulate=simulate, worstcase=worstcase)
    hooked = {name for name, _, info in tracing.wrap_spec(modules) if info is not None}
    original = cli.sweep_steady_state
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        for argv in tiny_calls(tmp_path):
            assert cli.main(argv) == 0, argv
    finally:
        tracer.uninstall()
    assert cli.sweep_steady_state is original

    seen = {span[3] for span in tracer.spans}
    assert hooked <= seen
    infos = [span[6] for span in tracer.spans if span[3] in hooked]
    assert all(info is not None for info in infos)
    (sweep,) = [span[6] for span in tracer.spans if span[3] == "chain.sweep"]
    assert sweep == {"cells": 4, "ok": 3}
    # Spans are written as JSON lines; every info value must serialize.
    tracer.write(str(tmp_path / "spans.jsonl"))
    with open(tmp_path / "spans.jsonl") as handle:
        assert len([json.loads(line) for line in handle]) == len(tracer.spans)
