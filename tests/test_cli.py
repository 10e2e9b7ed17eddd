import argparse
import csv
import hashlib
import importlib
import json
import math
import os
import pathlib
import struct
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

import pathfinder_ops
import pathfinder_ops.chain as chain_module
import pathfinder_ops.cli as cli_module
import pathfinder_ops.simulate as simulate_module
import pathfinder_ops.worstcase as worstcase_module
from pathfinder_ops import (
    DegenerateGradient,
    InsufficientData,
    NonUniqueStationary,
    NoTippingPoint,
    PathfinderOpsError,
    WorstCaseScenario,
    expected_offers,
    group_reject_probs,
    worst_case_prob,
)
from pathfinder_ops.agents import candidates_from_json
from pathfinder_ops.chain import MAX_SWEEP_CELLS
from pathfinder_ops.fileio import read_json
from pathfinder_ops.worstcase import MAX_ALPHA_NODES
from pathfinder_ops.cli import SCHEMA, main

from oracles import CONFIG_PREDICATES, DEFAULT_GRIDS, exact_mean_offers, per_value_csv
from test_ntml import load_fixture
from test_simulate import no_rng


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def assert_refused(code, err, needle):
    """Exit 2 with exactly one error[...] line naming `needle`."""
    lines = err.splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error[config_invalid]: "), err
    assert needle in lines[0]


def project_fixture(tmp_path):
    """Write the fixture corpus without its ground-truth label column."""
    records, labels = load_fixture()
    path = tmp_path / "corpus.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "facility", "comment"])
        for rec in records:
            writer.writerow([rec.timestamp, rec.facility, rec.comment])
    return str(path), labels


FIG3_WORST = {"worst_case": {"n": 10, "u_minus": -2.0, "u_plus": 2.0, "beta": 1.0, "delta": 0.1}}


def kernel_called(*args, **kwargs):
    """Stand-in for a compute kernel in tests of requests refused before it."""
    raise AssertionError("kernel called")


def uniform_pi(g, a, s):
    """Stand-in for the stationary formula that is wrong for every chain."""
    return np.full(np.shape(g) + (4,), 0.25)


def no_kernels(monkeypatch):
    """Make every sweep and gradient-map kernel raise, so an oversized
    request that slipped past validation fails at once instead of
    allocating."""
    monkeypatch.setattr(np, "meshgrid", kernel_called)
    monkeypatch.setattr(chain_module, "transition_matrices", kernel_called)
    monkeypatch.setattr(chain_module, "stationary", kernel_called)
    monkeypatch.setattr(worstcase_module, "shift_law", kernel_called)
    monkeypatch.setattr(worstcase_module, "_partials", kernel_called)


# A sweep over both zero edges: g = 0 alone leaves pi = e0, a = 0 alone
# pi = e1, and g = a = 0 two closed classes.
ZERO_EDGES = {"chain": {"p_good": [0, 0.5], "p_accept": [0, 0.5], "p_success": 0.5}}


class TestSteady:
    def test_zero_p_good_and_p_accept_are_swept(self, tmp_path, capsys):
        # Refused with exit 2 up to 0.18.0, which took p_good and p_accept
        # grids in (0, 1] only.
        assert main(["steady", "--config", write_config(tmp_path, ZERO_EDGES)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        assert lines[1:4] == [
            "0,0,0.5,,,,,non_unique", "0,0.5,0.5,1,0,0,0,ok", "0.5,0,0.5,0,1,0,0,ok"
        ]

    def test_singleton_solve(self, tmp_path):
        cfg = write_config(
            tmp_path, {"chain": {"p_good": 0.5, "p_accept": 1.0, "p_success": 1.0}}
        )
        out = str(tmp_path / "steady.csv")
        assert main(["steady", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["pi0"]) == pytest.approx(1 / 3, abs=1e-10)
        assert float(rows[0]["pi1"]) == pytest.approx(1 / 6, abs=1e-10)
        assert rows[0]["status"] == "ok"

    def test_calibrated_sweep_span(self, tmp_path):
        g_grid = [round(0.1 * i, 10) for i in range(1, 10)]
        cfg = write_config(
            tmp_path,
            {"chain": {"p_good": g_grid, "p_accept": 0.81, "p_success": 0.87}},
        )
        out = str(tmp_path / "sweep.csv")
        assert main(["steady", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out)
        pi0 = [float(r["pi0"]) for r in rows]
        assert pi0[0] == pytest.approx(0.757, abs=5e-3)
        assert pi0[-1] == pytest.approx(0.092, abs=5e-3)
        assert all(a > b for a, b in zip(pi0, pi0[1:]))

    def test_missing_chain_section_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {})
        assert main(["steady", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "error[config_invalid]" in err and "chain" in err

    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"chain": {"p_good": 0.5, "p_bogus": 1.0}})
        code = main(["steady", "--config", cfg])
        needle = "config section 'chain': unknown key 'p_bogus'"
        assert_refused(code, capsys.readouterr().err, needle)

    @pytest.mark.parametrize("grid", [[{}], ["x"], [True]])
    def test_non_numeric_grid_refused(self, tmp_path, capsys, grid):
        cfg = write_config(tmp_path, {"chain": {"p_good": grid, "p_accept": 0.5, "p_success": 0.5}})
        code = main(["steady", "--config", cfg])
        assert_refused(code, capsys.readouterr().err, "chain.p_good")

    def test_all_cells_degenerate_exits_3(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"chain": {"p_good": 1.0, "p_accept": 0.5, "p_success": 0.0}}
        )
        assert main(["steady", "--config", cfg]) == 3
        assert "error[computation_failed]" in capsys.readouterr().err

    def test_failed_stationarity_check_exits_3(self, tmp_path, capsys, monkeypatch):
        # A wrong stationary formula trips the kernel's residual self-check.
        monkeypatch.setattr(chain_module, "_closed_form", uniform_pi)
        cfg = write_config(
            tmp_path, {"chain": {"p_good": 0.999999999, "p_accept": 1e-12, "p_success": 0.0}}
        )
        code = main(["steady", "--config", cfg])
        lines = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(lines) == 1 and lines[0].startswith("error[computation_failed]: ")
        assert "stationarity residual" in lines[0]

    def test_unwritable_out_names_the_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, {"chain": {"p_good": 0.5, "p_accept": 0.5, "p_success": 0.5}})
        code = main(["steady", "--config", cfg, "--out", "missing/x.csv"])
        lines = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(lines) == 1 and lines[0].startswith("error[io_failed]: ")
        assert "missing/x.csv" in lines[0] and ".tmp-" not in lines[0]

    def test_out_onto_a_directory_names_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"chain": {"p_good": 0.5, "p_accept": 0.5, "p_success": 0.5}})
        target = tmp_path / "adir"
        target.mkdir()
        code = main(["steady", "--config", cfg, "--out", str(target)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 3
        assert lines == [f"error[io_failed]: [Errno 21] Is a directory: '{target}'"]
        assert sorted(os.listdir(tmp_path)) == ["adir", "config.json"]
        assert os.listdir(target) == []

    def test_near_reducible_cell_is_solved(self, tmp_path):
        # Refused with exit 3 up to 0.5.0: the LU solve gave a -2.2e-8 component.
        cfg = write_config(
            tmp_path, {"chain": {"p_good": 0.999999999, "p_accept": 1e-12, "p_success": 0.0}}
        )
        out = str(tmp_path / "steady.csv")
        assert main(["steady", "--config", cfg, "--out", out]) == 0
        (row,) = read_csv(out)
        assert row["status"] == "ok" and row["pi3"] == "0"
        assert [float(row[f"pi{i}"]) for i in range(3)] == pytest.approx([1e-12, 1.0, 1e-12], rel=1e-9)

    def test_oversized_sweep_refused_before_any_kernel(self, tmp_path, capsys, monkeypatch):
        # Three 1,000-value grids (a 20 KB config) would ask for 1e9 cells.
        no_kernels(monkeypatch)
        axis = [i / 1000 for i in range(1, 1001)]
        cfg = write_config(tmp_path, {"chain": {"p_good": axis, "p_accept": axis, "p_success": axis}})
        out = tmp_path / "steady.csv"
        code = main(["steady", "--config", cfg, "--out", str(out)])
        assert_refused(code, capsys.readouterr().err, f"at most {MAX_SWEEP_CELLS} cells")
        assert not out.exists()

    def test_benchmark_sized_sweep_passes_validation(self, tmp_path, monkeypatch):
        # The benchmark's 25 x 25 x 26 = 16,250-cell grid reaches the kernel.
        no_kernels(monkeypatch)
        axis = [round(0.04 * k, 12) for k in range(1, 25)] + [1.0]
        s_axis = [round(0.04 * k, 12) for k in range(26)]
        cfg = write_config(tmp_path, {"chain": {"p_good": axis, "p_accept": axis, "p_success": s_axis}})
        with pytest.raises(AssertionError, match="kernel called"):
            main(["steady", "--config", cfg])


class TestWorst:
    def test_reference_tipping_point_in_output(self, tmp_path):
        cfg = write_config(tmp_path, FIG3_WORST)
        out = str(tmp_path / "worst.csv")
        assert main(["worst", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out)
        assert len(rows) == 101
        assert float(rows[0]["alpha_star"]) == pytest.approx(0.8864, abs=5e-4)
        w = [float(r["W"]) for r in rows]
        assert all(a < b for a, b in zip(w, w[1:]))

    def test_extreme_values_run_without_warnings(self, tmp_path, capsys):
        # beta * (u + theta * node) overflows; the logistic of +/-inf is exact.
        doc = {
            "worst_case": dict(FIG3_WORST["worst_case"], beta=1e308),
            "noise": {"kind": "gaussian", "theta": 1e308},
            "social": {"s": 0.5, "gamma": 1e308, "r": 0.5},
        }
        out = str(tmp_path / "worst.csv")
        assert main(["worst", "--config", write_config(tmp_path, doc), "--out", out]) == 0
        assert capsys.readouterr().err == ""
        assert len(read_csv(out)) == 101

    def test_fully_selfish_social_column_collapses(self, tmp_path):
        doc = dict(FIG3_WORST, social={"s": 1.0, "gamma": 2.5, "r": 0.5})
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "worst.csv")
        assert main(["worst", "--config", cfg, "--out", out]) == 0
        for row in read_csv(out):
            assert float(row["W_social"]) == float(row["W"])

    def test_zero_noise_column_collapses(self, tmp_path):
        doc = dict(FIG3_WORST, noise={"kind": "gaussian", "theta": 0.0})
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "worst.csv")
        assert main(["worst", "--config", cfg, "--out", out]) == 0
        for row in read_csv(out):
            assert abs(float(row["W_noisy"]) - float(row["W"])) <= 1e-12

    def test_unreachable_threshold_leaves_star_blank(self, tmp_path):
        doc = {"worst_case": {"n": 10, "u_minus": -2.0, "u_plus": 2.0, "beta": 1.0, "delta": 0.9}}
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "worst.csv")
        assert main(["worst", "--config", cfg, "--out", out]) == 0
        assert read_csv(out)[0]["alpha_star"] == ""

    def test_bad_scenario_exits_2(self, tmp_path):
        doc = {"worst_case": {"n": 10, "u_minus": 2.0, "u_plus": 2.0, "beta": 1.0, "delta": 0.1}}
        cfg = write_config(tmp_path, doc)
        assert main(["worst", "--config", cfg]) == 2

    def test_steep_noisy_root_exits_3(self, tmp_path, capsys):
        # No root search can bring |W - delta| under 1e-10 in double
        # precision: both adjacent doubles of the last bracket miss it (4.4e-9).
        doc = {"worst_case": {"n": 10**9, "u_minus": -22.0, "u_plus": 22.0, "beta": 1.0,
                              "delta": 0.1, "alpha_grid": [0.5]},
               "noise": {"kind": "rademacher", "theta": 0.5}}
        out = tmp_path / "worst.csv"
        code = main(["worst", "--config", write_config(tmp_path, doc), "--out", str(out)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(lines) == 1 and lines[0].startswith("error[computation_failed]: root search stopped")
        assert lines[0].endswith("above the 1e-10 residual target")
        assert not out.exists()

    # p_rej and p_rec both round to 0.5, so W = 0.5^n for every alpha.
    FLAT = {"u_minus": -1e-8, "u_plus": 1e-8, "beta": 1e-9}

    @pytest.mark.parametrize("n, noise", [(1, None), (3, {"kind": "rademacher", "theta": 1.0})])
    def test_flat_mixture_at_delta_tips_at_zero(self, tmp_path, n, noise):
        doc = {"worst_case": dict(self.FLAT, n=n, delta=0.5**n)}
        if noise:
            doc["noise"] = noise
        out = tmp_path / "worst.csv"
        assert main(["worst", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        for row in read_csv(out):
            assert row["alpha_star"] == "0" and row.get("alpha_star_noisy", "0") == "0"

    def test_flat_mixture_off_delta_leaves_star_blank(self, tmp_path):
        doc = {"worst_case": dict(self.FLAT, n=1, delta=0.3)}
        out = tmp_path / "worst.csv"
        assert main(["worst", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        assert {row["alpha_star"] for row in read_csv(out)} == {""}

    @pytest.mark.parametrize("grid", [["x"], [0.5, True], "0.5", []])
    def test_non_numeric_alpha_grid_refused(self, tmp_path, capsys, grid):
        doc = {"worst_case": dict(FIG3_WORST["worst_case"], alpha_grid=grid)}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "worst.csv"
        code = main(["worst", "--config", cfg, "--out", str(out)])
        assert_refused(code, capsys.readouterr().err, "worst_case.alpha_grid")
        assert not out.exists()

    @pytest.mark.parametrize("delta", [0.1, 0.9])
    def test_stars_are_empty_exactly_when_out_of_reach(self, tmp_path, delta):
        doc = dict(
            {"worst_case": dict(FIG3_WORST["worst_case"], delta=delta, alpha_grid=[0.0, 0.5, 1.0])},
            social={"s": 0.5, "gamma": 2.5, "r": 0.5},
            noise={"kind": "gaussian", "theta": 1.0},
        )
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "worst.csv")
        assert main(["worst", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out)
        assert len(rows) == 3
        stars = ["alpha_star", "alpha_star_social", "alpha_star_noisy"]
        for row in rows:
            assert list(row) == ["alpha", "W", "W_social", "W_noisy", *stars]
            # delta = 0.9 is out of reach under every law: every star is empty.
            assert all((row[star] == "") == (delta == 0.9) for star in stars)

    @settings(max_examples=40, deadline=None)
    @given(
        alphas=st.lists(st.floats(0, 1) | st.just(-0.0), min_size=1, max_size=40),
        delta=st.sampled_from([0.1, 0.9]),
        social=st.booleans(),
        noise=st.sampled_from([None, "gaussian", "rademacher"]),
    )
    def test_csv_matches_per_value_rows_of_the_library(self, alphas, delta, social, noise):
        # Every field of the CSV is the library's value formatted on its
        # own: a missing alpha* (delta = 0.9 is out of reach) is an empty
        # field, and an alpha of -0.0 prints as -0.
        wc = dict(FIG3_WORST["worst_case"], delta=delta)
        doc = {"worst_case": dict(wc, alpha_grid=alphas)}
        scn = worstcase_module.WorstCaseScenario(**wc)

        def star(fn, *fn_args):
            try:
                return fn(*fn_args)
            except NoTippingPoint:
                return None

        columns = {"alpha": alphas, "W": list(worstcase_module.worst_case_prob(scn, alphas))}
        stars = {"alpha_star": star(worstcase_module.tipping_point, scn)}
        if social:
            doc["social"] = {"s": 0.5, "gamma": 2.5, "r": 0.5}
            soc = worstcase_module.SocialParams(**doc["social"])
            columns["W_social"] = list(worstcase_module.social_worst_case_prob(scn, soc, alphas))
            stars["alpha_star_social"] = star(worstcase_module.social_tipping_point, scn, soc)
        if noise is not None:
            doc["noise"] = {"kind": noise, "theta": 1.0}
            spec = worstcase_module.NoiseSpec(kind=worstcase_module.NoiseKind(noise), theta=1.0)
            columns["W_noisy"] = list(worstcase_module.noisy_worst_case_prob(scn, spec, alphas))
            stars["alpha_star_noisy"] = star(worstcase_module.noisy_tipping_point, scn, spec)
        columns.update((name, [value] * len(alphas)) for name, value in stars.items())
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(pathlib.Path(tmp), doc)
            out = os.path.join(tmp, "w.csv")
            assert main(["worst", "--config", cfg, "--out", out]) == 0
            with open(out, newline="") as fh:
                text = fh.read()
        assert text == per_value_csv(list(columns), zip(*columns.values()))

    def test_alpha_grid_too_long_for_the_rule_refused(self, tmp_path, capsys):
        # 22,672 alphas x 370 nodes is one pair over the cap.
        alphas = [i / 30000 for i in range(MAX_ALPHA_NODES // 370 + 1)]
        doc = {"worst_case": dict(FIG3_WORST["worst_case"], alpha_grid=alphas),
               "noise": {"kind": "gaussian", "theta": 1.0, "gh_nodes": 370}}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "worst.csv"
        code = main(["worst", "--config", cfg, "--out", str(out)])
        assert_refused(code, capsys.readouterr().err, f"at most {MAX_ALPHA_NODES}")
        assert not out.exists()

    def test_benchmark_sized_noisy_worst_runs(self, tmp_path):
        # The benchmark's 101 alphas x 61 nodes, with the social column too.
        doc = dict(FIG3_WORST, social={"s": 0.5, "gamma": 2.5, "r": 0.5},
                   noise={"kind": "gaussian", "theta": 1.0, "gh_nodes": 61})
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "worst.csv")
        assert main(["worst", "--config", cfg, "--out", out]) == 0
        assert len(read_csv(out)) == 101

    def test_gaussian_column_matches_library(self, tmp_path):
        from pathfinder_ops import NoiseKind, NoiseSpec, WorstCaseScenario, noisy_worst_case_prob

        doc = dict(FIG3_WORST, noise={"kind": "gaussian", "theta": 1.0})
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "worst.csv")
        assert main(["worst", "--config", cfg, "--out", out]) == 0
        scn = WorstCaseScenario(**FIG3_WORST["worst_case"])
        noise = NoiseSpec(NoiseKind.GAUSSIAN, 1.0)
        for row in read_csv(out):
            expected = noisy_worst_case_prob(scn, noise, float(row["alpha"]))
            assert float(row["W_noisy"]) == pytest.approx(expected, rel=1e-11)


class TestGradmap:
    SMALL = {
        "gradmap": {
            "n_values": [2, 10],
            "u_abs_values": [2.0],
            "alpha_grid": [0.0, 0.25, 0.5, 0.75, 1.0],
            "theta_grid": [0.0, 0.5, 1.0],
        }
    }

    def test_beta_times_n_beyond_the_float_range(self, tmp_path, capsys):
        doc = {"gradmap": {"beta": 1e308, "n_values": [10], "u_abs_values": [1.0],
                           "alpha_grid": [0.5], "theta_grid": [1.0, 2.0]}}
        cells = str(tmp_path / "cells.csv")
        cfg = write_config(tmp_path, doc)
        assert main(["gradmap", "--config", cfg, "--out", str(tmp_path / "map.csv"),
                     "--cells-out", cells]) == 0
        assert capsys.readouterr().err == ""
        grads = [row["dw_dtheta"] for row in read_csv(cells)]
        assert grads[0] == "4.69255447388e+306" and float(grads[1]) == 0.0

    def test_schema_and_range(self, tmp_path):
        cfg = write_config(tmp_path, self.SMALL)
        out = str(tmp_path / "grad.csv")
        assert main(["gradmap", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out)
        assert len(rows) == 2
        for row in rows:
            assert row["noise_kind"] == "rademacher"
            assert 0.0 <= float(row["fraction_negative"]) <= 1.0

    def test_gaussian_and_rademacher_share_schema(self, tmp_path):
        for kind in ("gaussian", "rademacher"):
            doc = dict(self.SMALL, noise={"kind": kind})
            cfg = write_config(tmp_path, doc, name=f"{kind}.json")
            out = str(tmp_path / f"grad-{kind}.csv")
            assert main(["gradmap", "--config", cfg, "--out", out]) == 0
            with open(out) as fh:
                assert fh.readline().strip() == "n,u_abs,noise_kind,fraction_negative"

    def test_cells_dump_behind_flag(self, tmp_path):
        cfg = write_config(tmp_path, self.SMALL)
        out = str(tmp_path / "grad.csv")
        cells = str(tmp_path / "cells.csv")
        assert main(["gradmap", "--config", cfg, "--out", out, "--cells-out", cells]) == 0
        with open(cells) as fh:
            header = fh.readline().strip()
            assert header == "n,u_abs,noise_kind,alpha,theta,dw_dtheta"
            assert len(fh.readlines()) == 2 * 5 * 3

    def test_bad_noise_kind_exits_2(self, tmp_path, capsys):
        doc = dict(self.SMALL, noise={"kind": "uniform"})
        cfg = write_config(tmp_path, doc)
        assert main(["gradmap", "--config", cfg]) == 2
        assert "noise.kind" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["alpha_grid", "theta_grid", "n_values", "u_abs_values"])
    def test_string_grid_refused(self, tmp_path, capsys, key):
        doc = {"gradmap": dict(self.SMALL["gradmap"], **{key: "1"})}
        cfg = write_config(tmp_path, doc)
        code = main(["gradmap", "--config", cfg])
        assert_refused(code, capsys.readouterr().err, f"gradmap.{key}")

    def test_noise_theta_grid_is_unknown(self, tmp_path, capsys):
        doc = dict(self.SMALL, noise={"kind": "gaussian", "theta_grid": [0.0, 1.0]})
        cfg = write_config(tmp_path, doc)
        code = main(["gradmap", "--config", cfg])
        needle = "config section 'noise': unknown key 'theta_grid'"
        assert_refused(code, capsys.readouterr().err, needle)

    def test_gh_nodes_upper_bound(self, tmp_path):
        doc = dict(self.SMALL, noise={"kind": "gaussian", "gh_nodes": 370})
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "grad.csv")
        assert main(["gradmap", "--config", cfg, "--out", out]) == 0
        assert len(read_csv(out)) == 2

    @pytest.mark.parametrize("gh_nodes", [371, 100000])
    def test_gh_nodes_beyond_bound_refused_before_any_rule_is_built(
        self, tmp_path, capsys, monkeypatch, gh_nodes
    ):
        def no_rule(*args):
            raise AssertionError("hermgauss called for a refused gh_nodes")

        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", no_rule)
        doc = dict(self.SMALL, noise={"kind": "gaussian", "gh_nodes": gh_nodes})
        cfg = write_config(tmp_path, doc)
        code = main(["gradmap", "--config", cfg])
        assert_refused(code, capsys.readouterr().err, "gh_nodes")

    def test_oversized_map_refused_before_any_kernel(self, tmp_path, capsys, monkeypatch):
        no_kernels(monkeypatch)
        grid = [i / 1000 for i in range(1001)]
        doc = {"gradmap": dict(self.SMALL["gradmap"], alpha_grid=grid, theta_grid=grid)}
        cfg = write_config(tmp_path, dict(doc, noise={"kind": "gaussian"}))
        out, cells = tmp_path / "grad.csv", tmp_path / "cells.csv"
        code = main(["gradmap", "--config", cfg, "--out", str(out), "--cells-out", str(cells)])
        assert_refused(code, capsys.readouterr().err, "at most 1048576 cells")
        assert not out.exists() and not cells.exists()

    @pytest.mark.parametrize("out", ["map.csv", None])
    def test_failed_cell_dump_leaves_no_summary(self, tmp_path, capsys, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, self.SMALL)
        argv = ["gradmap", "--config", cfg, "--cells-out", "nodir/x.csv"]
        code = main(argv + (["--out", out] if out else []))
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert code == 3
        assert len(lines) == 1 and lines[0].startswith("error[io_failed]: ")
        assert captured.out == ""
        assert os.listdir(tmp_path) == ["config.json"]

    def test_default_map_passes_validation(self, tmp_path, monkeypatch):
        # The default 4 x 4 x 51 x 51 = 41,616-cell map reaches the kernel.
        no_kernels(monkeypatch)
        cfg = write_config(tmp_path, {"noise": {"kind": "gaussian"}})
        with pytest.raises(AssertionError, match="kernel called"):
            main(["gradmap", "--config", cfg, "--cells-out", str(tmp_path / "cells.csv")])


class TestClassify:
    def test_fixture_corpus_end_to_end(self, tmp_path):
        corpus, expected_labels = project_fixture(tmp_path)
        out = str(tmp_path / "labeled.csv")
        assert main(["classify", corpus, "--out", out]) == 0
        rows = read_csv(out)
        assert [r["label"] for r in rows] == [l.value for l in expected_labels]

        counts = json.loads((tmp_path / "labeled.counts.json").read_text())
        assert counts["total"] == 50
        assert counts["n_assigned"] == 13

        params = json.loads((tmp_path / "labeled.params.json").read_text())
        # fixture: requested=10, failed=8, rejected=9
        assert params["p_accept"] == pytest.approx(18 / 27)
        assert params["p_success"] == pytest.approx(10 / 18)

    def test_reverse_engineered_params_values(self, tmp_path):
        # A corpus whose counts hit the reported calibration values exactly:
        # 87 requested, 13 failed, 23 rejected.
        path = tmp_path / "corpus.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp", "facility", "comment"])
            for i in range(87):
                writer.writerow([f"2024-01-01T{i % 24:02d}:00:00Z", "ZNY", "requesting pathfinder"])
            for i in range(13):
                writer.writerow([f"2024-01-02T{i:02d}:00:00Z", "ZNY", "pathfinder not good"])
            for i in range(23):
                writer.writerow([f"2024-01-03T{i % 24:02d}:00:00Z", "ZNY", "pathfinder declined"])
        out = str(tmp_path / "labeled.csv")
        assert main(["classify", str(path), "--out", out]) == 0
        params = json.loads((tmp_path / "labeled.params.json").read_text())
        assert params["p_accept"] == 100 / 123
        assert params["p_success"] == 0.87

    def test_calibrate_produces_steady_csv(self, tmp_path):
        corpus, _ = project_fixture(tmp_path)
        out = str(tmp_path / "labeled.csv")
        steady = str(tmp_path / "steady.csv")
        assert (
            main(
                [
                    "classify",
                    corpus,
                    "--out",
                    out,
                    "--calibrate",
                    "--g-grid",
                    "0.1:0.9:0.1",
                    "--steady-out",
                    steady,
                ]
            )
            == 0
        )
        rows = read_csv(steady)
        assert len(rows) == 9
        assert [float(r["p_good"]) for r in rows] == pytest.approx(
            [0.1 * i for i in range(1, 10)]
        )

    @staticmethod
    def mentioned_only_corpus(tmp_path):
        # No requested or failed comment: the counts cannot calibrate the chain.
        path = tmp_path / "corpus.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp", "facility", "comment"])
            writer.writerow(["2024-01-01T00:00:00Z", "ZNY", "pathfinder ops possible later today"])
        return str(path)

    def test_insufficient_corpus_exits_3(self, tmp_path, capsys):
        corpus = self.mentioned_only_corpus(tmp_path)
        out = str(tmp_path / "l.csv")
        assert main(["classify", corpus, "--out", out, "--calibrate"]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[computation_failed]: need n_requested")
        # Every output is computed before the first write: none is left.
        assert os.listdir(tmp_path) == ["corpus.csv"]

    def test_insufficient_corpus_without_calibrate_gets_null_params(self, tmp_path, capsys):
        corpus = self.mentioned_only_corpus(tmp_path)
        out = str(tmp_path / "l.csv")
        assert main(["classify", corpus, "--out", out]) == 0
        assert capsys.readouterr().err == ""
        assert [row["label"] for row in read_csv(out)] == ["Mentioned"]
        assert json.loads((tmp_path / "l.counts.json").read_text())["n_mentioned"] == 1
        params = json.loads((tmp_path / "l.params.json").read_text())
        assert params == {"p_accept": None, "p_success": None}

    def test_corpus_with_a_byte_order_mark(self, tmp_path):
        # A leading U+FEFF is dropped from the header; one inside a comment
        # is text, and kept.
        body = ("2024-01-01T00:00:00Z,ZNY,\ufeffrequesting pf\n"
                "2024-01-01T00:05:00Z,ZDC,ground stop \ufeff rejected\n")
        outputs = {}
        for bom in ("", "\ufeff"):
            corpus = tmp_path / f"corpus{len(bom)}.csv"
            corpus.write_text(bom + "timestamp,facility,comment\n" + body, encoding="utf-8")
            out = tmp_path / f"out{len(bom)}"
            out.mkdir()
            assert main(["classify", str(corpus), "--out", str(out / "labels.csv")]) == 0
            outputs[bom] = {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}
        assert len(outputs[""]) == 3
        assert outputs["\ufeff"] == outputs[""]
        rows = read_csv(tmp_path / "out1" / "labels.csv")
        assert [row["comment"] for row in rows] == ["\ufeffrequesting pf", "ground stop \ufeff rejected"]

    def test_custom_rules_file(self, tmp_path):
        rules = tmp_path / "rules.json"
        rules.write_text(
            json.dumps(
                {
                    "flight_number_pattern": "\\b[a-z]{2,3}[0-9]{1,4}\\b",
                    "labels": {
                        "Failed": ["scrubbed"],
                        "Rejected": ["declined"],
                        "Assigned": ["assigned"],
                        "Requested": ["requesting"],
                    },
                }
            )
        )
        path = tmp_path / "corpus.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp", "facility", "comment"])
            writer.writerow(["2024-01-01T00:00:00Z", "ZNY", "run was scrubbed early"])
            writer.writerow(["2024-01-01T01:00:00Z", "ZNY", "requesting another"])
        out = str(tmp_path / "labeled.csv")
        assert main(["classify", str(path), "--rules", str(rules), "--out", out]) == 0
        rows = read_csv(out)
        assert rows[0]["label"] == "Failed"
        assert rows[0]["rule"] == "failed:scrubbed"

    # Each refusal names the flag once and the text once.
    BAD_G_GRIDS = {
        **{text: f"--g-grid needs finite lo <= hi and step > 0, got {text!r}"
           for text in ("nan:1:0.1", "0:1:nan", "0:inf:0.1", "0.1:0.9:inf", "0.9:0.1:0.1")},
        "0.1:1.5:0.1": "--g-grid: p_good grid values must lie in [0, 1], got 1.1",
        "-0.1:0.5:0.1": "--g-grid: p_good grid values must lie in [0, 1], got -0.1",
        "0.1:x:0.1": "--g-grid must be lo:hi:step, got '0.1:x:0.1'",
        "0.1:0.9": "--g-grid must be lo:hi:step, got '0.1:0.9'",
        "0:1:1e-6": f"--g-grid may have at most {MAX_SWEEP_CELLS} values, got '0:1:1e-6'",
    }

    @pytest.mark.parametrize("g_grid", list(BAD_G_GRIDS))
    def test_bad_g_grid_refused_before_anything_is_written(
        self, tmp_path, capsys, monkeypatch, g_grid
    ):
        # "0:1:1e-6" asks for about 1e6 values, over the MAX_SWEEP_CELLS cap.
        # The grid may follow the flag after "=" or as the next argument, a
        # negative lo included, and is refused alike.
        monkeypatch.setattr(cli_module, "calibrated_steady_state", kernel_called)
        corpus, _ = project_fixture(tmp_path)
        out = tmp_path / "l.csv"
        line = f"error[config_invalid]: {self.BAD_G_GRIDS[g_grid]}\n"
        for spelling in ([f"--g-grid={g_grid}"], ["--g-grid", g_grid]):
            code = main(["classify", corpus, "--out", str(out), "--calibrate", *spelling])
            assert (code, capsys.readouterr().err) == (2, line), spelling
            for name in ("l.csv", "l.counts.json", "l.params.json", "l.steady.csv"):
                assert not (tmp_path / name).exists()

    def test_calibrated_sweep_writes_the_rows_of_steady(self, tmp_path, capsys):
        # One requested, one failed and two rejected comments: p_accept =
        # 2/4 and p_success = 1/2, so --g-grid 0:0.5:0.5 sweeps the cells of
        # ZERO_EDGES with p_accept = 0.5, the p_good = 0 edge included.
        corpus = tmp_path / "corpus.csv"
        corpus.write_text(
            "timestamp,facility,comment\n"
            + "".join(f"2024-01-01T0{i}:00:00Z,ZNY,{comment}\n" for i, comment in enumerate(
                ["requesting a pathfinder", "pathfinder not good", "declined", "declined"]))
        )
        out = tmp_path / "l.csv"
        argv = ["classify", str(corpus), "--out", str(out), "--calibrate", "--g-grid", "0:0.5:0.5"]
        assert main(argv) == 0
        assert json.loads((tmp_path / "l.params.json").read_text()) == {
            "p_accept": 0.5, "p_success": 0.5
        }
        assert main(["steady", "--config", write_config(tmp_path, ZERO_EDGES)]) == 0
        steady = capsys.readouterr().out.splitlines(keepends=True)
        expected = steady[:1] + [line for line in steady[1:] if line.split(",")[1] == "0.5"]
        assert len(expected) == 3
        assert (tmp_path / "l.steady.csv").read_text() == "".join(expected)

    def test_g_grid_checked_before_the_corpus_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "no-such-corpus.csv")
        out = str(tmp_path / "l.csv")
        code = main(["classify", missing, "--out", out, "--calibrate", "--g-grid", "0:inf:0.1"])
        assert_refused(code, capsys.readouterr().err, "--g-grid")

    def test_g_grid_values_repeated_by_rounding_refused(self, tmp_path, capsys):
        # 11 values a tenth of the 1e-12 rounding apart are 2 distinct ones.
        missing, out = str(tmp_path / "no-such-corpus.csv"), str(tmp_path / "l.csv")
        argv = ["classify", missing, "--out", out, "--calibrate", "--g-grid", "0:1e-12:1e-13"]
        needle = "--g-grid values repeat once rounded to 12 decimals, got '0:1e-12:1e-13'"
        assert_refused(main(argv), capsys.readouterr().err, needle)
        assert os.listdir(tmp_path) == []
        tenths = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        assert cli_module._colon_grid("0.1:0.9:0.1") == tenths

    @pytest.mark.parametrize(
        "flags", [["--g-grid", "0.2:0.4:0.1"], ["--steady-out", "st.csv"], ["--g-grid", ""]]
    )
    def test_calibration_flags_need_calibrate(self, tmp_path, capsys, monkeypatch, flags):
        # Refused before the corpus is read: the corpus does not exist.
        monkeypatch.chdir(tmp_path)
        code = main(["classify", "no-such-corpus.csv", "--out", "l.csv", *flags])
        assert_refused(code, capsys.readouterr().err, f"{flags[0]} needs --calibrate")
        assert os.listdir(tmp_path) == []

    def test_non_unique_calibration_exits_3(self, tmp_path, capsys):
        # Only failed runs: p_success = 0, so the chain at p_good = 1 has two
        # recurrent classes.
        path = tmp_path / "corpus.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp", "facility", "comment"])
            writer.writerow(["2024-01-01T00:00:00Z", "ZNY", "pathfinder not good"])
        out = tmp_path / "l.csv"
        argv = ["classify", str(path), "--out", str(out), "--calibrate", "--g-grid", "0.5:1:0.5"]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error[computation_failed]: ")
        # The sweep fails before any output is written.
        assert os.listdir(tmp_path) == ["corpus.csv"]

    def test_fixture_outputs_are_pinned(self, tmp_path):
        # sha256 of what classify --calibrate writes for the fixture, as the
        # per-keyword regex classifier of 0.3.0 wrote it.
        corpus, _ = project_fixture(tmp_path)
        assert main(["classify", corpus, "--out", str(tmp_path / "l.csv"), "--calibrate"]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("l.csv", "l.counts.json", "l.params.json")
        }
        assert digests == {
            "l.csv": "a162c7f20a020cdb5f57204b8fd4d53b641c035088650a6ff3fa30185f4d4b9f",
            "l.counts.json": "abbd5fbfa9ec4cf4658d7c5f073e3e4e649d02d22f207296a185219075722637",
            "l.params.json": "12f7e8e3322e9f8602878c8ad2698fb0fd8445990c642ae38115d9d24424143d",
        }

    def test_keyword_without_letter_or_digit_exit_2(self, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_text(
            json.dumps(
                {
                    "flight_number_pattern": "\\b[a-z]{2,3}[0-9]{1,4}\\b",
                    "labels": {
                        "Failed": ["!!!"],
                        "Rejected": ["declined"],
                        "Assigned": ["assigned"],
                        "Requested": ["requesting"],
                    },
                }
            )
        )
        corpus, _ = project_fixture(tmp_path)
        out = tmp_path / "labeled.csv"
        code = main(["classify", corpus, "--rules", str(rules), "--out", str(out)])
        assert_refused(code, capsys.readouterr().err, "labels.Failed[0]")
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, needle",
        [
            ("", "empty file"),
            ("time,comment\n2024-01-01T00:00:00Z,hello\n", "expected header"),
            ("timestamp,facility,comment\n2024-01-01T00:00:00Z,ZNY\n", "line 2: expected 3 fields"),
            ("timestamp,facility,comment\nyesterday,ZNY,hello\n", "line 2: timestamp 'yesterday'"),
            (
                "timestamp,facility,comment\n2024-01-01T00:00:00x+00:00,ZNY,hello\n",
                "line 2: timestamp '2024-01-01T00:00:00x+00:00' is not ISO-8601",
            ),
            (
                "timestamp,facility,comment\n2024-01-01T00:00:00Z,ZNY,ok\n2024-01-01T00:00:001+00:00,ZNY,hi\n",
                "line 3: timestamp '2024-01-01T00:00:001+00:00' is not ISO-8601",
            ),
            (
                "timestamp,facility,comment\n2024-01-01T00:001Z,ZNY,hello\n",
                "line 2: timestamp '2024-01-01T00:001Z' is not ISO-8601",
            ),
            ("timestamp,facility,comment\n2024-01-01T00:00:00Z,ZNY,  \n", "line 2: comment must"),
            (
                'timestamp,facility,comment\n2024-01-01T00:00:00Z,ZNY,"a\nb\nc"\nnot-a-time,ZNY,hello\n',
                "line 5: timestamp 'not-a-time'",
            ),
            # Past csv's 131,072-character field limit, which is not raised.
            (
                'timestamp,facility,comment\n2024-01-01T00:00:00Z,ZNY,ok\n'
                '2024-01-01T00:00:00Z,ZNY,"' + "x" * 200_000 + '"\n',
                "line 3: field larger than field limit (131072)",
            ),
            (
                b"timestamp,facility,comment\n2024-01-01T00:00:00Z,ZNY,ok\n"
                b"2024-01-01T00:00:00Z,ZNY,caf\xe9\n2024-01-01T00:00:00Z,ZNY,ok\n",
                "line 3: not valid UTF-8",
            ),
        ],
        ids=["empty", "header", "field-count", "timestamp", "stray-before-offset",
             "surplus-digit-before-offset", "surplus-digit-before-z", "empty-comment",
             "after-multi-line", "oversized-field", "not-utf-8"],
    )
    def test_malformed_corpus_exits_3_and_writes_nothing(self, tmp_path, capsys, text, needle):
        path = tmp_path / "corpus.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        code = main(["classify", str(path), "--out", str(tmp_path / "l.csv"), "--calibrate"])
        lines = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(lines) == 1 and lines[0].startswith(f"error[computation_failed]: {path}: {needle}")
        assert os.listdir(tmp_path) == ["corpus.csv"]

    def test_malformed_rules_exit_2(self, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps({"labels": {}}))
        corpus, _ = project_fixture(tmp_path)
        out = str(tmp_path / "labeled.csv")
        assert main(["classify", corpus, "--rules", str(rules), "--out", out]) == 2
        assert "flight_number_pattern" in capsys.readouterr().err


class TestSimulate:
    CHAIN_DOC = {
        "chain": {"p_good": 0.5, "p_accept": 1.0, "p_success": 1.0},
        "sim": {"seed": 42, "steps": 200000, "burn_in": 1000},
    }

    def test_chain_sim_with_analytic_comparison(self, tmp_path):
        cfg = write_config(tmp_path, self.CHAIN_DOC)
        out = str(tmp_path / "sim.json")
        assert main(["simulate", "--config", cfg, "--out", out, "--compare-analytic"]) == 0
        doc = json.loads(pathlib.Path(out).read_text())
        block = doc["chain"]
        assert block["seed"] == 42 and block["steps"] == 200000
        assert block["max_abs_error"] <= 0.01
        assert block["within_tolerance"] is True
        assert len(block["occupancy"]) == 4

    def test_selection_batch_matches_closed_form(self, tmp_path):
        doc = dict(FIG3_WORST, sim={"seed": 7, "rounds": 100000, "alpha": 0.5})
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "sel.json")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        block = json.loads(pathlib.Path(out).read_text())["selection"]
        w = block["analytic_all_reject"]
        se = (w * (1 - w) / block["rounds"]) ** 0.5
        assert abs(block["all_reject_rate"] - w) <= 3 * se

    @pytest.mark.parametrize(
        "worst_case,alpha",
        [
            (FIG3_WORST["worst_case"], 0.5),
            # Every agent refuses every offer: W = 1, no error, no z.
            ({"n": 3, "u_minus": -50.0, "u_plus": 50.0, "beta": 1.0, "delta": 0.1}, 1.0),
        ],
    )
    def test_selection_error_bar(self, tmp_path, worst_case, alpha):
        doc = {"worst_case": worst_case, "sim": {"seed": 3, "rounds": 5000, "alpha": alpha}}
        out = tmp_path / "sel.json"
        assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        block = json.loads(out.read_text())["selection"]
        w, rate = block["analytic_all_reject"], block["all_reject_rate"]
        se = math.sqrt(w * (1.0 - w) / 5000)
        assert block["all_reject_std_error"] == pytest.approx(se, rel=1e-15)
        if se == 0.0:
            assert block["all_reject_z"] is None
        else:
            assert block["all_reject_z"] == pytest.approx((rate - w) / se, rel=1e-12)

    @pytest.mark.parametrize(
        "worst_case,alpha,rounds",
        [
            (FIG3_WORST["worst_case"], 0.5, 5000),
            # Every agent refuses every offer: n offers a round, no error, no z.
            ({"n": 3, "u_minus": -50.0, "u_plus": 50.0, "beta": 1.0, "delta": 0.1}, 1.0, 5000),
            # One round has no sample variance.
            (FIG3_WORST["worst_case"], 0.5, 1),
        ],
    )
    def test_mean_offers_error_bar(self, tmp_path, worst_case, alpha, rounds):
        doc = {"worst_case": worst_case, "sim": {"seed": 3, "rounds": rounds, "alpha": alpha}}
        out = tmp_path / "sel.json"
        assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        block = json.loads(out.read_text())["selection"]
        scn = WorstCaseScenario(**worst_case)
        mean = exact_mean_offers(scn.n, alpha, *group_reject_probs(scn))
        assert block["analytic_mean_offers"] == pytest.approx(mean, rel=1e-13)
        error = block["mean_offers_std_error"]
        if rounds == 1:
            assert error is None
        if not error:
            assert block["mean_offers_z"] is None
        else:
            z = (block["mean_offers"] - block["analytic_mean_offers"]) / error
            assert block["mean_offers_z"] == pytest.approx(z, rel=1e-12)

    def test_rounds_work_out_the_selection_law_once(self, tmp_path, monkeypatch):
        # The group probabilities (worst_case_prob, expected_offers and the
        # rounds all read them) and the Binomial(n, alpha) table come from
        # mixture_batch alone.
        calls = {"_reject_probs": 0, "_binomial_pmf": 0}

        def counted(module, name):
            function = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return function(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(worstcase_module, "_reject_probs")
        counted(simulate_module, "_binomial_pmf")
        doc = dict(FIG3_WORST, sim={"seed": 1, "rounds": 1000, "alpha": 0.5})
        out = tmp_path / "sel.json"
        assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        assert calls == {"_reject_probs": 1, "_binomial_pmf": 1}
        block = json.loads(out.read_text())["selection"]
        scn = WorstCaseScenario(**FIG3_WORST["worst_case"])
        assert block["analytic_all_reject"] == worst_case_prob(scn, 0.5)
        assert block["analytic_mean_offers"] == expected_offers(scn, 0.5)

    def test_tiny_p_good_prints_no_warning(self, tmp_path, capsys):
        doc = {
            "chain": {"p_good": 3e-308, "p_accept": 0.5, "p_success": 0.5},
            "sim": {"seed": 1, "steps": 10000},
        }
        assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["chain"]["occupancy"] == [1.0, 0.0, 0.0, 0.0]

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, self.CHAIN_DOC)
        out1 = str(tmp_path / "a.json")
        out2 = str(tmp_path / "b.json")
        assert main(["simulate", "--config", cfg, "--out", out1]) == 0
        assert main(["simulate", "--config", cfg, "--out", out2]) == 0
        assert pathlib.Path(out1).read_bytes() == pathlib.Path(out2).read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, self.CHAIN_DOC)
        out1 = str(tmp_path / "a.json")
        out2 = str(tmp_path / "b.json")
        assert main(["simulate", "--config", cfg, "--out", out1, "--seed", "43"]) == 0
        assert main(["simulate", "--config", cfg, "--out", out2]) == 0
        text1, text2 = pathlib.Path(out1).read_text(), pathlib.Path(out2).read_text()
        assert json.loads(text1)["chain"]["seed"] == 43
        assert text1 != text2

    def test_missing_alpha_for_rounds_exits_2(self, tmp_path, capsys):
        doc = dict(FIG3_WORST, sim={"seed": 1, "rounds": 10})
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg]) == 2
        assert "sim.alpha" in capsys.readouterr().err

    def test_json_format_is_the_default(self, tmp_path):
        cfg = write_config(tmp_path, self.CHAIN_DOC)
        out = tmp_path / "a.json"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert set(json.loads(out.read_text())) == {"chain"}

    def test_failed_analytic_solve_exits_3(self, tmp_path, capsys, monkeypatch):
        # The walk runs; the analytic solve then fails its residual self-check.
        monkeypatch.setattr(chain_module, "_closed_form", uniform_pi)
        doc = {"chain": {"p_good": 0.999999999, "p_accept": 1e-12, "p_success": 0.0},
               "sim": {"seed": 1, "steps": 1000}}
        out = tmp_path / "sim.json"
        code = main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out),
                     "--compare-analytic"])
        lines = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(lines) == 1 and lines[0].startswith("error[computation_failed]: ")
        assert not out.exists()

    @pytest.mark.parametrize("g,a,s", [(0.0, 0.0, 0.0), (0.0, 0.0, 0.7), (1.0, 0.0, 0.0), (1.0, 0.0, 1.0)])
    def test_non_unique_boundary_chain_exits_3(self, tmp_path, capsys, g, a, s):
        # Two absorbing states: Gate Closed and Selection at g = 0, Selection
        # and Gate Opened at g = 1.
        doc = {"chain": {"p_good": g, "p_accept": a, "p_success": s}, "sim": {"seed": 1, "steps": 1000}}
        out = tmp_path / "sim.json"
        code = main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out),
                     "--compare-analytic"])
        lines = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(lines) == 1 and lines[0].startswith("error[computation_failed]: ")
        assert "not unique" in lines[0] and not out.exists()

    @pytest.mark.parametrize(
        "g,a,s,state",
        [(0.0, 0.6, 0.3, 0), (0.0, 1.0, 0.0, 0), (0.4, 0.0, 0.7, 1), (0.9, 0.0, 0.0, 1), (1.0, 0.5, 1.0, 3)],
    )
    def test_boundary_chain_has_one_absorbing_state(self, tmp_path, g, a, s, state):
        doc = {"chain": {"p_good": g, "p_accept": a, "p_success": s},
               "sim": {"seed": 1, "steps": 20000, "burn_in": 1000}}
        out = tmp_path / "sim.json"
        assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out),
                     "--compare-analytic"]) == 0
        block = json.loads(out.read_text())["chain"]
        assert block["analytic_pi"] == [float(i == state) for i in range(4)]
        assert block["max_abs_error"] == 0.0 and block["within_tolerance"] is True

    def test_idle_sim_section_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"sim": {"seed": 1}})
        assert main(["simulate", "--config", cfg]) == 2

    BOTH_DOC = dict(
        FIG3_WORST,
        chain={"p_good": 0.5, "p_accept": 0.8, "p_success": 0.9},
        sim={"seed": 1, "steps": 100, "burn_in": 10, "rounds": 100, "alpha": 0.5},
    )

    @pytest.mark.parametrize("key", ["seed", "steps", "burn_in", "rounds"])
    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_sim_value_refused(self, tmp_path, capsys, monkeypatch, key, value):
        monkeypatch.setattr(simulate_module, "make_rng", no_rng)
        doc = dict(self.BOTH_DOC, sim=dict(self.BOTH_DOC["sim"], **{key: value}))
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "sim.json"
        code = main(["simulate", "--config", cfg, "--out", str(out)])
        assert_refused(code, capsys.readouterr().err, key)
        assert not out.exists()

    @pytest.mark.parametrize(
        "section,key,needle", [("worst_case", "n", "n must"), ("sim", "alpha", "alpha")]
    )
    def test_boolean_selection_value_refused(self, tmp_path, capsys, section, key, needle):
        doc = dict(FIG3_WORST, sim={"seed": 1, "rounds": 100, "alpha": 0.5})
        doc[section] = dict(doc[section], **{key: True})
        cfg = write_config(tmp_path, doc)
        code = main(["simulate", "--config", cfg])
        assert_refused(code, capsys.readouterr().err, needle)

    @pytest.mark.parametrize("sim", [{"seed": -1, "steps": 100}, {"seed": 2**64, "rounds": 10}])
    def test_out_of_range_seed_refused(self, tmp_path, capsys, sim):
        cfg = write_config(tmp_path, dict(self.BOTH_DOC, sim=dict(sim, alpha=0.5)))
        code = main(["simulate", "--config", cfg])
        assert_refused(code, capsys.readouterr().err, "seed")

    @pytest.mark.parametrize(
        "sim,needle",
        [
            ({"steps": 10**9 + 1}, "steps"),
            ({"steps": 10**30}, "steps"),
            ({"rounds": 2**24 // 10 + 1}, "rounds x n"),
            ({"rounds": 10**30}, "rounds x n"),
        ],
    )
    def test_oversized_request_refused_before_anything_runs(
        self, tmp_path, capsys, monkeypatch, sim, needle
    ):
        # The valid other half of the request must not run either.
        monkeypatch.setattr(simulate_module, "make_rng", no_rng)
        doc = dict(self.BOTH_DOC, sim=dict(self.BOTH_DOC["sim"], **sim))
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "sim.json"
        code = main(["simulate", "--config", cfg, "--out", str(out)])
        assert_refused(code, capsys.readouterr().err, needle)
        assert not out.exists()

    def test_benchmark_sized_requests_pass_validation(self, tmp_path, monkeypatch):
        # 2e6 steps and 1e6 rounds of n = 10 get past every check and reach
        # the generator, which is stubbed so nothing runs.
        monkeypatch.setattr(simulate_module, "make_rng", no_rng)
        for sim in ({"steps": 2_000_000}, {"rounds": 1_000_000}):
            doc = dict(FIG3_WORST, chain=self.BOTH_DOC["chain"], sim=dict(sim, seed=1, alpha=0.5))
            cfg = write_config(tmp_path, doc)
            with pytest.raises(AssertionError, match="make_rng called"):
                main(["simulate", "--config", cfg])


class TestConfigSchema:
    """Each key's JSON type is checked once, when the config is loaded."""

    SOCIAL = {"s": 0.5, "gamma": 2.5, "r": 0.5}
    NOISE = {"kind": "gaussian", "theta": 1.0}

    @pytest.mark.parametrize("name", sorted(DEFAULT_GRIDS))
    def test_default_grids_keep_their_bits(self, name):
        # errors.step_grid builds all four; each is the comprehension it
        # replaced, to the bit.
        section, key = name.split(".")
        grid = SCHEMA[section][key][1]

        def bits(values):
            return struct.pack(f"<{len(values)}d", *values)

        assert bits(grid) == bits(DEFAULT_GRIDS[name])

    @pytest.mark.parametrize(
        "command,doc,needle",
        [
            ("worst", {"worst_case": dict(FIG3_WORST["worst_case"], u_plus=True)}, "worst_case.u_plus must be a number, got True"),
            ("worst", {"worst_case": dict(FIG3_WORST["worst_case"], u_plus="2")}, "worst_case.u_plus must be a number, got '2'"),
            ("worst", {"worst_case": dict(FIG3_WORST["worst_case"], beta=True)}, "worst_case.beta"),
            ("worst", {"worst_case": dict(FIG3_WORST["worst_case"], u_minus="-inf")}, "worst_case.u_minus"),
            ("worst", dict(FIG3_WORST, social=dict(SOCIAL, s=True)), "social.s"),
            ("worst", dict(FIG3_WORST, social=dict(SOCIAL, gamma="1e3")), "social.gamma"),
            ("worst", dict(FIG3_WORST, noise=dict(NOISE, theta=True)), "noise.theta"),
            ("worst", dict(FIG3_WORST, noise=dict(NOISE, theta="2")), "noise.theta"),
            ("worst", dict(FIG3_WORST, noise=dict(NOISE, theta=float("inf"))), "noise.theta"),
            ("gradmap", {"gradmap": {"beta": True}}, "gradmap.beta"),
            ("gradmap", {"gradmap": {"beta": "2"}}, "gradmap.beta"),
            ("gradmap", {"gradmap": {"n_values": [2.0]}}, "gradmap.n_values must be an integer, got 2.0"),
            ("simulate", dict(FIG3_WORST, sim={"seed": 1, "rounds": 10, "alpha": "0.5"}), "sim.alpha"),
            ("steady", {"chain": {"p_good": float("nan")}}, "chain.p_good"),
            ("steady", {"chain": {"p_good": [0.5, -float("inf")]}}, "chain.p_good"),
            ("worst", {"worst_case": dict(FIG3_WORST["worst_case"], u_plus=10**400)}, "worst_case.u_plus"),
            ("simulate", {"sim": {"seed": 10**400, "steps": 10}}, "sim.seed must be finite"),
            ("worst", {"worst_case": dict(FIG3_WORST["worst_case"], n=None)}, "worst_case.n"),
            ("worst", {"worst_case": dict(FIG3_WORST["worst_case"], delta={})}, "worst_case.delta"),
            ("worst", dict(FIG3_WORST, noise={"kind": 1}), "noise.kind"),
            ("gradmap", {"gradmap": {"n_values": []}}, "gradmap.n_values must be a non-empty list, got []"),
            ("worst", {"worst_case": dict(FIG3_WORST["worst_case"], alpha_grid=0.5)}, "worst_case.alpha_grid must be a non-empty list, got 0.5"),
            ("steady", {"chain": {"p_good": "x"}}, "chain.p_good must be a number, got 'x'"),
            ("steady", {"chain": {"p_good": [0.5, [0.5]]}}, "chain.p_good must be a number, got [0.5]"),
        ],
    )
    def test_wrong_type_refused_naming_the_key(self, tmp_path, capsys, command, doc, needle):
        cfg = write_config(tmp_path, doc)  # NaN and Infinity become JSON literals
        out = tmp_path / "out"
        code = main([command, "--config", cfg, "--out", str(out)])
        assert_refused(code, capsys.readouterr().err, needle)
        assert not out.exists()

    # Required keys set to values every check takes, so that only the key
    # under test can be refused.
    REQUIRED = {
        "worst_case": {"n": 5, "u_minus": -1.0, "u_plus": 2.0, "beta": 1.0, "delta": 0.5},
        "social": SOCIAL,
        "noise": {"kind": "gaussian"},
    }
    SCALARS = (
        st.booleans() | st.none() | st.integers() | st.floats()
        | st.integers(2**1024 - 2**970, 2**1100).flatmap(lambda n: st.sampled_from([n, -n]))
        | st.sampled_from([0, 1, -0.0, 5e-324, math.nan, math.inf, -math.inf, 10**308, {}])
        | st.sampled_from(["2", "1e3", "nan", "-inf", "", "gaussian", "Rademacher", "GAUSSIAN", "x"])
    )
    VALUES = SCALARS | st.lists(SCALARS | st.lists(SCALARS, max_size=3), max_size=5)

    @pytest.mark.parametrize(
        "section,key", [(s, k) for s, keys in CONFIG_PREDICATES.items() for k in keys]
    )
    @settings(max_examples=40, deadline=None)
    @given(value=VALUES)
    def test_same_values_accepted_as_the_predicates(self, section, key, value):
        body = dict(self.REQUIRED.get(section, {}), **{key: value})
        try:
            cli_module._checked(section, body)
        except ValueError as exc:
            assert str(exc).startswith(f"{section}.{key} must ")
            assert not CONFIG_PREDICATES[section][key](value)
        else:
            assert CONFIG_PREDICATES[section][key](value)

    def test_every_schema_key_has_a_predicate(self):
        assert {s: list(keys) for s, keys in cli_module.SCHEMA.items()} == {
            s: list(keys) for s, keys in CONFIG_PREDICATES.items()
        }

    def test_present_section_is_checked_for_every_command(self, tmp_path, capsys):
        # steady does not read `social`, but an incomplete section is refused.
        doc = {"chain": {"p_good": 0.5}, "social": {"s": 0.5, "gamma": 2.5}}
        code = main(["steady", "--config", write_config(tmp_path, doc)])
        assert_refused(code, capsys.readouterr().err, "config section 'social': missing key 'r'")

    def test_noise_kind_is_case_insensitive(self, tmp_path):
        doc = dict(FIG3_WORST, noise={"kind": "Rademacher", "theta": 1})
        out = str(tmp_path / "worst.csv")
        assert main(["worst", "--config", write_config(tmp_path, doc), "--out", out]) == 0
        assert "W_noisy" in read_csv(out)[0]

    def test_simulation_needs_a_single_chain(self, tmp_path, capsys):
        doc = {"chain": {"p_good": [0.5, 0.6], "p_accept": 0.5, "p_success": 0.5},
               "sim": {"seed": 1, "steps": 10}}
        code = main(["simulate", "--config", write_config(tmp_path, doc)])
        assert_refused(code, capsys.readouterr().err, "chain.p_good must be a single number")

    def test_deeply_nested_junk_refused(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code = main(["steady", "--config", str(path)])
        assert_refused(code, capsys.readouterr().err, "not valid JSON")


class TestJsonInputs:
    """Config, rules and candidate files share one reader and one key check,
    so each malformed file is refused alike: through the CLI with exit 2 and
    one error line, through the library with a ValueError, each naming the
    file, the key or the wrong type, and nothing written."""

    RULES = {
        "flight_number_pattern": "x",
        "labels": {"Failed": ["a"], "Rejected": ["b"], "Assigned": ["c"], "Requested": ["d"]},
    }
    PROFILE = {"id": "A", "reward": 2.0, "participation_cost": 0.5, "failure_cost": 1.0,
               "beta": 1.0, "p_success_i": 0.8}
    # Per input and case: the document written, and the text its error holds
    # (None: the file's path).
    DOCS = {
        "config": {
            "wrong-type": ([], None),
            "unknown-key": ({"chain": {"bogus": 1}}, "unknown key 'bogus'"),
            "missing-key": ({"social": {"s": 0.5, "gamma": 2.5}}, "missing key 'r'"),
        },
        "rules": {
            "wrong-type": ([], "expected a JSON object, got list"),
            "unknown-key": (dict(RULES, bogus=1), "unknown key 'bogus'"),
            "missing-key": ({"labels": RULES["labels"]}, "missing key 'flight_number_pattern'"),
        },
        "candidates": {
            "wrong-type": ({}, "expected a JSON array of candidates, got dict"),
            "unknown-key": (
                [{"profile": PROFILE, "epsilon": 0.5, "bogus": 1}], "unknown key 'bogus'"
            ),
            "missing-key": (
                [{"profile": {k: v for k, v in PROFILE.items() if k != "beta"}, "epsilon": 0.5}],
                "record 0: profile: missing key 'beta'",
            ),
        },
    }
    CASES = ["deep", "not-utf8", "directory", "missing", "wrong-type", "unknown-key", "missing-key"]

    def malformed(self, path, case, kind):
        """Make the malformed file at `path`; the text its error must hold."""
        if case == "deep":
            path.write_text("[" * 200_000 + "]" * 200_000)
        elif case == "not-utf8":
            path.write_bytes(b'{"chain": {"p_good": "\xff"}}')
        elif case == "directory":
            path.mkdir()
        elif case != "missing":
            doc, needle = self.DOCS[kind][case]
            path.write_text(json.dumps(doc))
            return needle or str(path)
        return str(path)

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("kind", ["config", "rules"])
    def test_cli_refuses(self, tmp_path, capsys, kind, case):
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("timestamp,facility,comment\n2024-01-01T00:00:00Z,ZNY,requesting pf\n")
        path = tmp_path / f"{kind}.json"
        needle = self.malformed(path, case, kind)
        before = sorted(os.listdir(tmp_path))
        out = str(tmp_path / "out.csv")
        if kind == "config":
            code = main(["steady", "--config", str(path), "--out", out])
        else:
            code = main(["classify", str(corpus), "--rules", str(path), "--out", out])
        assert_refused(code, capsys.readouterr().err, needle)
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize(
        "doc,needle",
        [
            ([], "expected a JSON object, got list"),
            (dict(RULES, labels=dict(RULES["labels"], X=["x"])), "labels: unknown key 'X'"),
            (dict(RULES, flight_number_pattern="("), "'flight_number_pattern' is not a valid regex"),
            # re raises OverflowError for a count of 2**32 or more, and
            # RecursionError for nesting deeper than the recursion limit.
            (dict(RULES, flight_number_pattern="a{4294967296}"),
             "'flight_number_pattern' is not a valid regex"),
            (dict(RULES, flight_number_pattern="(" * 2000 + "a" + ")" * 2000),
             "'flight_number_pattern' is not a valid regex"),
        ],
        ids=["list", "unknown-label", "bad-regex", "huge-repeat", "deep-nesting"],
    )
    def test_rules_errors_name_the_file(self, tmp_path, capsys, doc, needle):
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("timestamp,facility,comment\n2024-01-01T00:00:00Z,ZNY,requesting pf\n")
        path = tmp_path / "arr.json"
        path.write_text(json.dumps(doc))
        code = main(["classify", str(corpus), "--rules", str(path), "--out", str(tmp_path / "l.csv")])
        assert_refused(code, capsys.readouterr().err, f"rules file {path}: {needle}")

    @pytest.mark.parametrize("case", CASES)
    def test_load_candidates_refuses(self, tmp_path, case):
        # A candidates file is read the one way: read_json, then
        # candidates_from_json.
        path = tmp_path / "candidates.json"
        needle = self.malformed(path, case, "candidates")
        with pytest.raises(ValueError) as info:
            candidates_from_json(read_json(str(path), "candidates file"))
        assert needle in str(info.value)


    def test_a_byte_order_mark_is_read_past(self, tmp_path):
        # Spreadsheet and Windows tools start UTF-8 files with U+FEFF.
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("timestamp,facility,comment\n2024-01-01T00:00:00Z,ZNY,requesting pf\n")
        docs = {"config": {"chain": {"p_good": 0.5}}, "rules": self.RULES}
        outputs = {}
        for bom in ("", "\ufeff"):
            for kind, doc in docs.items():
                (tmp_path / f"{kind}.json").write_text(bom + json.dumps(doc), encoding="utf-8")
            out = tmp_path / f"out{len(bom)}"
            out.mkdir()
            assert main(["steady", "--config", str(tmp_path / "config.json"),
                         "--out", str(out / "steady.csv")]) == 0
            assert main(["classify", str(corpus), "--rules", str(tmp_path / "rules.json"),
                         "--out", str(out / "labels.csv")]) == 0
            outputs[bom] = {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}
        assert len(outputs[""]) == 4
        assert outputs["\ufeff"] == outputs[""]
        candidates = tmp_path / "candidates.json"
        candidates.write_text("\ufeff" + json.dumps([{"profile": self.PROFILE, "epsilon": 0.5}]),
                              encoding="utf-8")
        doc = read_json(str(candidates), "candidates file")
        assert [c.profile.id for c in candidates_from_json(doc)] == ["A"]


class TestOneWriter:
    """Subcommands return (target, text) pairs, the text a str or an
    iterable of str chunks; `main` alone checks the targets and writes
    them."""

    # A config for each config subcommand, and the outputs it is run with.
    CONFIGS = {
        "steady": ({"chain": {"p_good": [0.3, 1.0]}}, []),
        "worst": (FIG3_WORST, ["--out", "w.csv"]),
        "gradmap": (TestGradmap.SMALL, ["--cells-out", "cells.csv"]),
        "simulate": ({"chain": {"p_good": 0.5, "p_accept": 0.8, "p_success": 0.9},
                      "sim": {"seed": 1, "steps": 1000}}, ["--out", "sim.json"]),
    }

    @classmethod
    def argv(cls, inputs, command):
        if command == "classify":
            return ["classify", project_fixture(inputs)[0], "--out", "l.csv", "--calibrate"]
        doc, outputs = cls.CONFIGS[command]
        return [command, "--config", write_config(inputs, doc, name=f"{command}.json"), *outputs]

    @pytest.mark.parametrize("command", ["steady", "worst", "gradmap", "classify", "simulate"])
    def test_subcommands_return_what_main_writes(self, tmp_path, capsys, monkeypatch, command):
        inputs, run = tmp_path / "inputs", tmp_path / "run"
        inputs.mkdir()
        run.mkdir()
        monkeypatch.chdir(run)
        argv = self.argv(inputs, command)
        args = cli_module.build_parser().parse_args(argv)
        outputs = args.func(args)
        assert os.listdir(run) == []
        assert capsys.readouterr() == ("", "")

        assert main(argv) == 0
        files = {path: "".join(text) for path, text in outputs if path is not None}
        assert sorted(os.listdir(run)) == sorted(files)
        for path, text in files.items():
            assert (run / path).read_bytes() == text.encode("utf-8")
        stdout = "".join(text for path, text in outputs if path is None)
        assert capsys.readouterr() == (stdout, "")

    @pytest.mark.parametrize(
        "command,flags,needle",
        [
            ("classify", ["--out", "x.csv", "--counts-out", "x.csv"], "x.csv and x.csv"),
            ("classify", ["--out", "x.csv", "--params-out", "x.counts.json"],
             "x.counts.json and x.counts.json"),
            ("classify", ["--out", "x.csv", "--calibrate", "--steady-out", "x.csv"],
             "x.csv and x.csv"),
            ("gradmap", ["--out", "m.csv", "--cells-out", "./m.csv"], "./m.csv and m.csv"),
            ("gradmap", ["--out", "m.csv", "--cells-out", "dl/m.csv"], "dl/m.csv and m.csv"),
        ],
    )
    def test_one_file_named_twice_is_refused(
        self, tmp_path, capsys, monkeypatch, command, flags, needle
    ):
        inputs, run = tmp_path / "inputs", tmp_path / "run"
        inputs.mkdir()
        run.mkdir()
        monkeypatch.chdir(run)
        os.symlink(".", "dl")
        if command == "classify":
            argv = ["classify", project_fixture(inputs)[0], *flags]
        else:
            argv = ["gradmap", "--config", write_config(inputs, TestGradmap.SMALL), *flags]
        code = main(argv)
        captured = capsys.readouterr()
        assert_refused(code, captured.err, f"two outputs name one file: {needle}")
        assert captured.out == ""
        assert os.listdir(run) == ["dl"]

    def test_symlinked_file_is_a_file_of_its_own(self, tmp_path, monkeypatch):
        # atomic_write_text replaces the link, not the file it points to.
        monkeypatch.chdir(tmp_path)
        os.symlink("real.csv", "link.csv")
        cfg = write_config(tmp_path, TestGradmap.SMALL)
        assert main(["gradmap", "--config", cfg, "--out", "real.csv", "--cells-out", "link.csv"]) == 0
        assert not os.path.islink("link.csv")
        assert list(read_csv("link.csv")[0]) == ["n", "u_abs", "noise_kind", "alpha", "theta", "dw_dtheta"]
        assert list(read_csv("real.csv")[0]) == ["n", "u_abs", "noise_kind", "fraction_negative"]


    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("command", list(CONFIGS))
    def test_format_is_refused_and_nothing_written(self, tmp_path, capsys, command, fmt):
        # Every table is CSV and every document JSON: no subcommand takes --format.
        cfg = write_config(tmp_path, self.CONFIGS[command][0])
        code = main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--format", fmt])
        captured = capsys.readouterr()
        assert_refused(code, captured.err, f"unrecognized arguments: --format {fmt}")
        assert captured.out == ""
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize(
        "command,flags,needle",
        [
            *((command, ["--out", "c.json"], "c.json is c.json") for command in CONFIGS),
            ("steady", ["--out", "dl/c.json"], "dl/c.json is c.json"),
            ("gradmap", ["--cells-out", "./c.json"], "./c.json is c.json"),
            ("classify", ["--out", "corpus.csv"], "corpus.csv is corpus.csv"),
            ("classify", ["--out", "r.json"], "r.json is r.json"),
            ("classify", ["--out", "l.csv", "--counts-out", "corpus.csv"], "corpus.csv is corpus.csv"),
            ("classify", ["--out", "l.csv", "--counts-out", "r.json"], "r.json is r.json"),
            ("classify", ["--out", "l.csv", "--params-out", "corpus.csv"], "corpus.csv is corpus.csv"),
            ("classify", ["--out", "l.csv", "--params-out", "r.json"], "r.json is r.json"),
            ("classify", ["--out", "l.csv", "--calibrate", "--steady-out", "./r.json"],
             "./r.json is r.json"),
        ],
    )
    def test_an_output_naming_an_input_is_refused(
        self, tmp_path, capsys, monkeypatch, command, flags, needle
    ):
        # Writing would replace the config, corpus or rules file the run read.
        monkeypatch.chdir(tmp_path)
        os.symlink(".", "dl")
        if command == "classify":
            project_fixture(tmp_path)
            write_config(tmp_path, TestJsonInputs.RULES, name="r.json")
            argv = ["classify", "corpus.csv", "--rules", "r.json", *flags]
        else:
            write_config(tmp_path, self.CONFIGS[command][0], name="c.json")
            argv = [command, "--config", "c.json", *flags]
        before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path) if name != "dl"}
        code = main(argv)
        captured = capsys.readouterr()
        assert_refused(code, captured.err, f"an output names an input file: {needle}")
        assert captured.out == ""
        assert sorted(os.listdir(tmp_path)) == sorted([*before, "dl"])
        assert {name: (tmp_path / name).read_bytes() for name in before} == before

    def test_a_link_to_the_config_is_replaced_not_followed(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, self.CONFIGS["steady"][0], name="c.json")
        config = (tmp_path / "c.json").read_bytes()
        os.symlink("c.json", "link.csv")
        assert main(["steady", "--config", "c.json", "--out", "link.csv"]) == 0
        assert not os.path.islink("link.csv")
        assert list(read_csv("link.csv")[0])[:3] == ["p_good", "p_accept", "p_success"]
        assert (tmp_path / "c.json").read_bytes() == config

    def test_an_empty_output_path_is_refused(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.CONFIGS["steady"][0])
        code = main(["steady", "--config", cfg, "--out", ""])
        captured = capsys.readouterr()
        assert_refused(code, captured.err, "an output path may not be empty")
        assert captured.out == ""
        assert os.listdir(tmp_path) == ["config.json"]


class TestExitCodes:
    """The exception decides the exit code and the error tag, wherever it is
    raised: here from inside the steady sweep."""

    @pytest.mark.parametrize(
        "error,code,tag",
        [
            (NonUniqueStationary, 3, "computation_failed"),
            (NoTippingPoint, 3, "computation_failed"),
            (DegenerateGradient, 3, "computation_failed"),
            (InsufficientData, 3, "computation_failed"),
            (PathfinderOpsError, 3, "computation_failed"),
            (ArithmeticError, 3, "computation_failed"),
            (ZeroDivisionError, 3, "computation_failed"),
            (ValueError, 2, "config_invalid"),
            (OSError, 3, "io_failed"),
        ],
    )
    def test_one_line_per_failure(self, tmp_path, capsys, monkeypatch, error, code, tag):
        def fail(*args):
            raise error(f"{error.__name__} raised in the sweep")

        monkeypatch.setattr(cli_module, "sweep_steady_state", fail)
        cfg = write_config(tmp_path, {"chain": {"p_good": 0.5}})
        assert main(["steady", "--config", cfg]) == code
        assert capsys.readouterr().err.splitlines() == [
            f"error[{tag}]: {error.__name__} raised in the sweep"
        ]


class TestParserReuse:
    """main() builds its parser once per process and parses every argv with
    it, so a call must not depend on the calls made before it."""

    # Back-to-back pairs: {cfg} is a steady and simulate config with
    # sim.seed 1, {corpus} the fixture corpus.
    PAIRS = {
        "calibrate-then-plain-classify": (
            ["classify", "{corpus}", "--out", "l.csv", "--calibrate", "--g-grid", "0.2:0.4:0.1",
             "--steady-out", "s.csv"],
            ["classify", "{corpus}", "--out", "l.csv"],
        ),
        "seed-flag-then-config-seed": (
            ["simulate", "--config", "{cfg}", "--seed", "5"], ["simulate", "--config", "{cfg}"],
        ),
        "refused-then-good": (
            ["steady", "--config", "{cfg}", "--bogus"], ["steady", "--config", "{cfg}"],
        ),
        "version-twice": (["--version"], ["--version"]),
    }

    @staticmethod
    def outcome(monkeypatch, capsys, run, argv):
        """Exit code, stdout, stderr and the files written of main(argv),
        run in the empty directory `run`."""
        run.mkdir()
        monkeypatch.chdir(run)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err, {path.name: path.read_bytes() for path in run.iterdir()}

    @pytest.mark.parametrize("pair", list(PAIRS))
    def test_each_call_gives_what_it_gives_first_in_a_fresh_main(
        self, tmp_path, capsys, monkeypatch, pair
    ):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        names = {
            "corpus": project_fixture(inputs)[0],
            "cfg": write_config(inputs, {
                "chain": {"p_good": 0.5, "p_accept": 0.8, "p_success": 0.9},
                "sim": {"seed": 1, "steps": 1000},
            }),
        }
        argvs = [[arg.format(**names) for arg in argv] for argv in self.PAIRS[pair]]
        fresh = []
        for i, argv in enumerate(argvs):
            cli_module.build_parser.cache_clear()
            fresh.append(self.outcome(monkeypatch, capsys, tmp_path / f"fresh{i}", argv))
        cli_module.build_parser.cache_clear()
        reused = [self.outcome(monkeypatch, capsys, tmp_path / f"reused{i}", argv)
                  for i, argv in enumerate(argvs)]
        assert reused == fresh

    def test_a_second_call_builds_no_parser(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, {"chain": {"p_good": 0.5}})
        assert main(["steady", "--config", cfg]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counted_init(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
        assert main(["steady", "--config", cfg]) == 0
        assert main(["steady", "--config", cfg, "--bogus"]) == 2
        assert built == []


def module_env():
    """Environment in which `python -m pathfinder_ops` imports the package
    under test, whether or not it is installed."""
    src = os.path.dirname(os.path.dirname(simulate_module.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"chain": {"p_good": 0.5, "p_accept": 1.0, "p_success": 1.0}}))
        out = tmp_path / "steady.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "pathfinder_ops", "steady", "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
            env=module_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    # Runs each analysis in a fresh interpreter in which the test extras
    # cannot be imported, and prints {command: exit code} as JSON.
    NUMPY_ALONE = r"""
import csv, importlib.abc, json, os, sys

EXTRAS = ("scipy", "hypothesis", "pytest")


class RefuseExtras(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in EXTRAS:
            raise ImportError(f"{name} is a test extra")
        return None


sys.meta_path.insert(0, RefuseExtras())
from pathfinder_ops import generate_corpus
from pathfinder_ops.cli import main

tmp = sys.argv[1]


def config(name, doc):
    path = os.path.join(tmp, name + ".json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


worst = {"n": 10, "u_minus": -2.0, "u_plus": 2.0, "beta": 1.0, "delta": 0.1}
corpus = os.path.join(tmp, "corpus.csv")
with open(corpus, "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["timestamp", "facility", "comment"])
    for rec, _ in generate_corpus(200, 3):
        writer.writerow([rec.timestamp, rec.facility, rec.comment])
runs = {
    "steady": ["--config", config("steady", {"chain": {"p_good": [0.3, 1.0], "p_success": [0.0, 0.5]}})],
    "worst": ["--config", config("worst", {"worst_case": worst, "social": {"s": 0.5, "gamma": 2.5, "r": 0.5},
                                           "noise": {"kind": "gaussian", "theta": 1.0}})],
    "gradmap": ["--config", config("gradmap", {"noise": {"kind": "gaussian"},
                                               "gradmap": {"n_values": [5], "u_abs_values": [2.0],
                                                           "alpha_grid": [0.2, 0.6], "theta_grid": [0, 1]}})],
    "simulate": ["--config", config("simulate", {"worst_case": worst,
                                                 "chain": {"p_good": 0.5, "p_accept": 0.8, "p_success": 0.9},
                                                 "sim": {"seed": 1, "steps": 1000, "rounds": 1000, "alpha": 0.5}}),
                 "--compare-analytic"],
    "classify": [corpus, "--calibrate"],
}
codes = {cmd: main([cmd, *argv, "--out", os.path.join(tmp, cmd + ".out")]) for cmd, argv in runs.items()}
codes["extras imported"] = sorted(m for m in sys.modules if m.partition(".")[0] in EXTRAS)
print(json.dumps(codes))
"""

    def test_runs_on_numpy_alone(self, tmp_path):
        # scipy, hypothesis and pytest are test extras: no analysis may need them.
        proc = subprocess.run(
            [sys.executable, "-c", self.NUMPY_ALONE, str(tmp_path)],
            capture_output=True,
            text=True,
            env=module_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert json.loads(proc.stdout) == {
            "steady": 0, "worst": 0, "gradmap": 0, "simulate": 0, "classify": 0, "extras imported": []
        }

    @pytest.mark.parametrize(
        "command,flags",
        [("steady", []), ("gradmap", ["--cells-out", "cells.csv"])],
        ids=["steady", "gradmap-with-a-file"],
    )
    def test_closed_stdout_is_refused_before_any_file(self, tmp_path, command, flags):
        # Python starts with sys.stdout None when fd 1 is closed.
        doc = {"chain": {"p_good": 0.5}} if command == "steady" else TestGradmap.SMALL
        cfg = write_config(tmp_path, doc)
        proc = subprocess.run(
            ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "pathfinder_ops",
             command, "--config", cfg, *flags],
            stderr=subprocess.PIPE,
            text=True,
            env=module_env(),
            cwd=tmp_path,
        )
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == ["error[io_failed]: [Errno 9] cannot write to stdout: it is closed"]
        assert os.listdir(tmp_path) == [os.path.basename(cfg)]

    USAGE_ERRORS = {
        "the following arguments are required: --config": ["steady"],
        "invalid choice: 'bogus'": ["bogus"],
        "unrecognized arguments: --bogus": ["steady", "--config", "c.json", "--bogus"],
        "argument --seed: invalid int value: '1e3'": ["simulate", "--config", "c.json", "--seed", "1e3"],
        "argument --g-grid: expected one argument":
            ["classify", "c.csv", "--out", "l.csv", "--calibrate", "--g-grid", "-x"],
    }

    def test_usage_error_is_exit_2(self):
        # A usage error is one error[config_invalid] line, with no usage block.
        for needle, argv in self.USAGE_ERRORS.items():
            proc = subprocess.run(
                [sys.executable, "-m", "pathfinder_ops", *argv],
                capture_output=True,
                text=True,
                env=module_env(),
            )
            assert_refused(proc.returncode, proc.stderr, needle)
            assert proc.stdout == ""

    @pytest.mark.parametrize("argv", [["--version"], ["--help"], ["steady", "--help"]])
    def test_help_and_version_exit_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        out, err = capsys.readouterr()
        assert out and err == ""


# The names `pathfinder_ops` exported before its exports became lazy, by the
# module that defines each.
PACKAGE_EXPORTS = {
    "agents": ["AgentProfile", "ControllerCandidate", "ControllerContext", "candidates_from_json",
               "controller_payoff", "p_accept", "rank_candidates", "utility_accept"],
    "chain": ["ChainParams", "stationary", "steady_state", "sweep_steady_state", "sweep_to_csv"],
    "errors": ["DegenerateGradient", "InsufficientData", "NonUniqueStationary", "NoTippingPoint",
               "PathfinderOpsError"],
    "ntml": ["Label", "LabelCounts", "LogCorpus", "LogRecord", "Match", "RuleSet",
             "calibrated_steady_state", "classify", "classify_corpus", "default_rules",
             "estimate_params", "generate_corpus", "labeled_to_csv", "load_rules", "read_corpus_csv"],
    "simulate": ["MixtureBatchResult", "SelectionOutcome", "SimConfig", "expected_offers", "make_rng",
                 "mixture_batch", "run_selection_round", "simulate_chain"],
    "worstcase": ["GradientSignMap", "NoiseKind", "NoiseSpec", "SocialParams", "WorstCaseScenario",
                  "gradient_sign_map", "group_reject_probs", "noisy_tipping_point",
                  "noisy_worst_case_prob", "social_tipping_point", "social_worst_case_prob",
                  "tipping_point", "tipping_point_gradient", "worst_case_prob"],
}


class TestColdStart:
    """A fresh process imports only what its call needs: the package and
    every call that computes no array import no numpy, and a subcommand
    imports only the analysis modules it uses."""

    # Imports the package, runs `main` on the JSON argv given (none for the
    # import alone) with stdout captured, and prints {"code": exit code,
    # "imported": the watched modules that the import and the call brought
    # in}. A module the interpreter loaded before, at start-up, is not
    # counted: site hooks may load importlib.resources there.
    IMPORTED_BY = r"""
import contextlib, io, json, sys

WATCHED = ["importlib.resources", "numpy", "pathfinder_ops.agents", "pathfinder_ops.chain",
           "pathfinder_ops.ntml", "pathfinder_ops.simulate", "pathfinder_ops.worstcase"]
before = set(sys.modules)
argv = json.loads(sys.argv[1])
code = None
import pathfinder_ops
if argv is not None:
    from pathfinder_ops.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
new = set(sys.modules) - before
print(json.dumps({"code": code, "imported": [m for m in WATCHED if m in new]}))
"""

    def imported_by(self, argv, cwd):
        proc = subprocess.run(
            [sys.executable, "-c", self.IMPORTED_BY, json.dumps(argv)],
            capture_output=True, text=True, env=module_env(), cwd=cwd,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    @pytest.mark.parametrize(
        "argv, code",
        [
            (None, None),
            (["--version"], 0),
            (["--help"], 0),
            (["steady", "--help"], 0),
            (["bogus"], 2),
            (["steady", "--config", "not-json.json"], 2),
        ],
        ids=["import", "version", "help", "steady-help", "unknown-subcommand", "config-not-json"],
    )
    def test_calls_without_arrays_import_no_numpy(self, tmp_path, argv, code):
        (tmp_path / "not-json.json").write_text("{chain: 0.5}")
        assert self.imported_by(argv, tmp_path) == {"code": code, "imported": []}

    @pytest.mark.parametrize(
        "command, doc, unused",
        [
            ("steady", {"chain": {"p_good": 0.5, "p_accept": 0.8, "p_success": 0.9}}, "worstcase"),
            ("worst", FIG3_WORST, "chain"),
            ("gradmap", TestGradmap.SMALL, "chain"),
        ],
        ids=["steady", "worst", "gradmap"],
    )
    def test_config_subcommands_import_only_their_modules(self, tmp_path, command, doc, unused):
        # Neither the subcommand nor the config sections it reads need the
        # module `unused`.
        cfg = write_config(tmp_path, doc)
        got = self.imported_by([command, "--config", cfg, "--out", "out.csv"], tmp_path)
        assert got["code"] == 0
        assert "numpy" in got["imported"]
        for module in ("ntml", "simulate", "agents", unused):
            assert f"pathfinder_ops.{module}" not in got["imported"]

    def test_classify_imports_only_its_modules(self, tmp_path):
        corpus, _ = project_fixture(tmp_path)
        got = self.imported_by(["classify", corpus, "--calibrate", "--out", "labels.csv"], tmp_path)
        assert got["code"] == 0
        assert "pathfinder_ops.ntml" in got["imported"]
        for module in ("pathfinder_ops.worstcase", "pathfinder_ops.simulate", "pathfinder_ops.agents",
                       "importlib.resources"):
            assert module not in got["imported"]

    @pytest.mark.parametrize("module", sorted(PACKAGE_EXPORTS))
    def test_every_export_is_its_modules_object(self, module):
        defining = importlib.import_module(f"pathfinder_ops.{module}")
        listed = dir(pathfinder_ops)
        for name in PACKAGE_EXPORTS[module]:
            assert getattr(pathfinder_ops, name) is getattr(defining, name), name
            assert name in listed and name in pathfinder_ops.__all__

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'bogus'"):
            pathfinder_ops.bogus
        with pytest.raises(AttributeError, match="has no attribute 'bogus'"):
            cli_module.bogus

    def test_a_name_bound_on_cli_is_kept(self, tmp_path, monkeypatch):
        # A caller may replace a function on `cli`, as a tracer does; binding
        # never overwrites it, so every later call calls the replacement.
        calls = []
        original = cli_module.sweep_steady_state

        def counted(*args):
            calls.append(args)
            return original(*args)

        cfg = write_config(tmp_path, {"chain": {"p_good": 0.5, "p_accept": 0.8, "p_success": 0.9}})
        monkeypatch.setattr(cli_module, "sweep_steady_state", counted)
        assert main(["steady", "--config", cfg, "--out", str(tmp_path / "a.csv")]) == 0
        assert main(["steady", "--config", cfg, "--out", str(tmp_path / "b.csv")]) == 0
        assert len(calls) == 2
