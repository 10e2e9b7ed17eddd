"""Golden bytes: the sha256 of whole float tables as the CLI writes them.

Each digest is of the text the per-value oracles of `oracles.py` write for
the same table (every field formatted by itself with `'%.12g'`), so any
writer must print these tables byte for byte as they do. The cases are the
benchmark's chain-grid sweep, the default sweep, a sweep whose pi rows
repeat (half its cells non-unique, every other pi = e3), the worst-case
table with every column, and both default gradient maps with their cell
dumps."""

import hashlib
import json

import pytest

from pathfinder_ops.cli import main


def grid(step, lo_k, hi_k):
    return [round(step * k, 12) for k in range(lo_k, hi_k + 1)]


BENCH_AXIS = grid(0.04, 1, 24) + [1.0]

# name -> (argv after the subcommand, config, {output file: sha256})
CASES = {
    "bench-chain-grid-sweep": (
        ["steady"],
        {"chain": {"p_good": BENCH_AXIS, "p_accept": BENCH_AXIS, "p_success": grid(0.04, 0, 25)}},
        {"out.csv": "3e0e30fc92bc540dedbb77dfc2c89a3305756a4c3b6d7b8e9da099b2ec231592"},
    ),
    "default-steady-sweep": (
        ["steady"],
        {"chain": {}},
        {"out.csv": "ede7fa4683a40df9e5aea50850594a0fe1e24bd55dba307c8e0991e716cc333c"},
    ),
    "repeated-pi-sweep": (
        ["steady"],
        {"chain": {"p_good": [1], "p_accept": [k / 4095 for k in range(4096)],
                   "p_success": [0, 0.5]}},
        {"out.csv": "df7dd03ab4220119565cd46778d5baa76a6977e3f149d73531b4852c104b2dd8"},
    ),
    "ci-worst-table": (
        ["worst"],
        {"worst_case": {"n": 10, "u_minus": -2, "u_plus": 2, "beta": 1, "delta": 0.1},
         "social": {"s": 0.5, "gamma": 1, "r": 0.5}, "noise": {"kind": "gaussian", "theta": 1}},
        {"out.csv": "c1254ffc1c334c1ba0cd02370745c3f9f37f4482a4589bec573259f74c2ff762"},
    ),
    "default-gaussian-gradmap": (
        ["gradmap", "--cells-out", "cells.csv"],
        {"noise": {"kind": "gaussian"}},
        {"out.csv": "ea4141d1bdfe8f3123a144dab1036f8e5b5f1c1d1e8843ca1128833f086c8827",
         "cells.csv": "6b00a6f1e9151aa8711f8ab898e9e90043d449b990257da8870a37f32919e73c"},
    ),
    "default-rademacher-gradmap": (
        ["gradmap", "--cells-out", "cells.csv"],
        {"noise": {"kind": "rademacher"}},
        {"out.csv": "634de3c78b50575973f771ef5e064e291f305b28411fceef1d437bd9c9a422f1",
         "cells.csv": "7c4fb24c614278f2e1b62657171156fc5bb9d4911b6b3fa41ba5d36dfb4dde96"},
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_table_bytes_are_pinned(tmp_path, monkeypatch, name):
    argv, config, digests = CASES[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main([*argv, "--config", "config.json", "--out", "out.csv"]) == 0
    written = {path: hashlib.sha256((tmp_path / path).read_bytes()).hexdigest() for path in digests}
    assert written == digests
