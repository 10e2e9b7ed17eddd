import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathfinder_ops import (
    ChainParams,
    NonUniqueStationary,
    default_grid,
    stationary,
    steady_state,
    sweep_steady_state,
    sweep_to_csv,
)
import pathfinder_ops.chain as chain_module
from pathfinder_ops.chain import (
    MAX_SWEEP_CELLS,
    STRUCTURAL_ZEROS,
    SWEEP_CSV_HEADER,
    SWEEP_DTYPE,
    transition_matrices,
)

from oracles import (
    closed_class_count,
    closed_form_pi,
    exact_stationary,
    exact_transition_matrix,
    power_iteration,
)


def pi_for(g, a, s):
    return steady_state(g, a, s)


class TestChainParams:
    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan"), 2.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            ChainParams(bad, 0.5, 0.5)
        with pytest.raises(ValueError):
            ChainParams(0.5, bad, 0.5)
        with pytest.raises(ValueError):
            ChainParams(0.5, 0.5, bad)

    def test_accepts_boundaries(self):
        ChainParams(0.0, 0.0, 0.0)
        ChainParams(1.0, 1.0, 1.0)


class TestTransitionMatrix:
    def test_exact_layout(self):
        g, a, s = 0.3, 0.81, 0.87
        P = transition_matrices(g, a, s)
        expected = np.array(
            [
                [1 - g, g, 0.0, 0.0],
                [0.0, 1 - a, a, 0.0],
                [1 - s, 0.0, 0.0, s],
                [1 - g, 0.0, 0.0, g],
            ]
        )
        np.testing.assert_allclose(P, expected, atol=0)

    def test_structural_zero_pattern(self):
        P = transition_matrices(0.3, 0.4, 0.5)
        for i, j in STRUCTURAL_ZEROS:
            assert P[i, j] == 0.0
        nonzero = {(i, j) for i in range(4) for j in range(4)} - set(STRUCTURAL_ZEROS)
        for i, j in nonzero:
            assert P[i, j] > 0.0

    def test_zero_weather_forces_closed_rows(self):
        P = transition_matrices(0.0, 0.5, 0.5)
        np.testing.assert_array_equal(P[0], [1, 0, 0, 0])
        np.testing.assert_array_equal(P[3], [1, 0, 0, 0])

    def test_deterministic_accept_success_rows(self):
        P = transition_matrices(0.5, 1.0, 1.0)
        np.testing.assert_array_equal(P[1], [0, 0, 1, 0])
        np.testing.assert_array_equal(P[2], [0, 0, 0, 1])

    def test_pathfinding_row_from_calibrated_values(self):
        P = transition_matrices(0.3, 0.81, 0.87)
        np.testing.assert_allclose(P[2], [0.13, 0.0, 0.0, 0.87], atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g, a, s = rng.uniform(0, 1, 3)
            P = transition_matrices(g, a, s)
            np.testing.assert_allclose(P.sum(axis=1), np.ones(4), atol=1e-12)


class TestSteadyState:
    def test_hand_solved_example(self):
        pi = pi_for(0.5, 1.0, 1.0)
        np.testing.assert_allclose(pi, [1 / 3, 1 / 6, 1 / 6, 1 / 3], atol=1e-12)

    def test_calibrated_low_weather_endpoint(self):
        pi = pi_for(0.1, 0.81, 0.87)
        assert pi[0] == pytest.approx(0.757, abs=5e-3)
        assert pi[3] == pytest.approx(0.073, abs=5e-3)

    def test_calibrated_high_weather_endpoint(self):
        pi = pi_for(0.9, 0.81, 0.87)
        assert pi[0] == pytest.approx(0.092, abs=5e-3)
        assert pi[3] == pytest.approx(0.722, abs=5e-3)

    def test_stationarity_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            g, a = rng.uniform(0.01, 0.99, 2)
            s = rng.uniform(0.0, 1.0)
            P = transition_matrices(g, a, s)
            pi = steady_state(g, a, s)
            assert np.max(np.abs(pi @ P - pi)) <= 1e-10
            assert abs(pi.sum() - 1.0) <= 1e-10
            assert np.all(pi >= 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        g=st.floats(0.01, 0.99),
        a=st.floats(0.01, 1.0),
        s=st.floats(0.0, 1.0),
    )
    def test_pathfinding_proportionality(self, g, a, s):
        pi = pi_for(g, a, s)
        assert abs(pi[2] - a * pi[1]) <= 1e-10

    @settings(max_examples=200, deadline=None)
    @given(
        g=st.floats(0.01, 0.99),
        a=st.floats(0.01, 1.0),
        s=st.floats(0.0, 1.0),
    )
    def test_closed_form_agreement(self, g, a, s):
        pi = pi_for(g, a, s)
        np.testing.assert_allclose(pi, closed_form_pi(g, a, s), atol=1e-10)

    def test_power_iteration_agreement(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            g, a, s = rng.uniform(0.05, 0.95, 3)
            P = transition_matrices(g, a, s)
            np.testing.assert_allclose(steady_state(g, a, s), power_iteration(P), atol=1e-8)

    def test_monotone_in_weather(self):
        a, s = 0.6, 0.7
        grid = np.linspace(0.02, 0.98, 49)
        pis = np.array([pi_for(g, a, s) for g in grid])
        assert np.all(np.diff(pis[:, 3]) >= -1e-12)
        assert np.all(np.diff(pis[:, 0]) <= 1e-12)

    def test_absorbing_closed_state(self):
        # g = 0 leaves a single recurrent class {Gate Closed}.
        np.testing.assert_allclose(pi_for(0.0, 0.5, 0.5), [1, 0, 0, 0], atol=1e-12)

    def test_absorbing_open_state(self):
        np.testing.assert_allclose(pi_for(1.0, 0.5, 0.5), [0, 0, 0, 1], atol=1e-12)

    def test_two_recurrent_classes_raises(self):
        # g = 0 and a = 0: both Gate Closed and Selection are absorbing.
        with pytest.raises(NonUniqueStationary):
            pi_for(0.0, 0.0, 0.5)
        # g = 1 and s = 0: {0,1,2} cycles while Gate Opened is absorbing.
        with pytest.raises(NonUniqueStationary):
            pi_for(1.0, 0.5, 0.0)

    @pytest.mark.parametrize("bad", [-0.1, 1.0 + 1e-15, float("nan"), float("inf")])
    def test_rejects_out_of_range_probabilities(self, bad):
        for args in ([bad, 0.5, 0.5], [0.5, [0.5, bad], 0.5], [0.5, 0.5, [[bad]]]):
            with pytest.raises(ValueError, match="must lie in \\[0, 1\\]"):
                stationary(*args)
            with pytest.raises(ValueError):
                transition_matrices(*args)

    def test_single_chain_is_a_0d_stack(self):
        pi, unique = stationary(0.5, 1.0, 1.0)
        assert pi.shape == (4,) and unique.shape == () and unique
        np.testing.assert_array_equal(steady_state(0.5, 1.0, 1.0), pi)


class TestSweep:
    def test_singleton_matches_point_solve(self):
        rows = sweep_steady_state([0.5], [1.0], [1.0])
        assert len(rows) == 1
        assert rows[0].status == "ok"
        np.testing.assert_allclose(rows[0].pi, [1 / 3, 1 / 6, 1 / 6, 1 / 3], atol=1e-12)

    def test_calibrated_endpoints(self):
        rows = sweep_steady_state([0.1, 0.9], [0.81], [0.87])
        assert [r.p_good for r in rows] == [0.1, 0.9]
        assert rows[0].pi[0] == pytest.approx(0.757, abs=5e-3)
        assert rows[1].pi[3] == pytest.approx(0.722, abs=5e-3)

    def test_proportionality_across_grid(self):
        grid = [round(0.1 * i, 10) for i in range(1, 10)]
        rows = sweep_steady_state(grid, grid, [1.0])
        assert len(rows) == 81
        for row in rows:
            assert row.status == "ok"
            assert abs(row.pi[2] - row.p_accept * row.pi[1]) <= 1e-10

    def test_lexicographic_order_even_for_unsorted_input(self):
        rows = sweep_steady_state([0.9, 0.1], [0.5, 0.3], [1.0, 0.2])
        keys = [(r.p_good, r.p_accept, r.p_success) for r in rows]
        assert keys == sorted(keys)

    def test_result_is_one_record_per_cell(self):
        rows = sweep_steady_state([0.5, 1.0], [0.5], [0.0, 0.5])
        assert rows.dtype == SWEEP_DTYPE and rows.shape == (4,)
        assert rows["status"].tolist() == ["ok", "ok", "non_unique", "ok"]
        assert np.isnan(rows["pi"][2]).all() and not np.isnan(rows["pi"][[0, 1, 3]]).any()
        assert rows["p_success"].tolist() == [0.0, 0.5, 0.0, 0.5]

    def test_degenerate_cells_become_error_rows(self):
        # g=1, s=0 has no unique stationary distribution.
        rows = sweep_steady_state([0.5, 1.0], [0.5], [0.0])
        assert [r.status for r in rows] == ["ok", "non_unique"]
        assert np.isnan(rows[1].pi).all()

    def test_empty_grid_raises(self):
        with pytest.raises(ValueError, match="grid must be non-empty"):
            sweep_steady_state([], [0.5], [0.5])

    def test_out_of_range_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_steady_state([0.0], [0.5], [0.5])  # g must be > 0
        with pytest.raises(ValueError):
            sweep_steady_state([0.5], [1.5], [0.5])

    @pytest.fixture
    def no_kernel(self, monkeypatch):
        def kernel_called(*args, **kwargs):
            raise AssertionError("kernel called")

        monkeypatch.setattr(np, "meshgrid", kernel_called)
        monkeypatch.setattr(chain_module, "transition_matrices", kernel_called)
        monkeypatch.setattr(chain_module, "stationary", kernel_called)

    @pytest.mark.parametrize("sizes", [(64, 64, 65), (1000, 1000, 1000)])
    def test_cell_cap_checked_before_any_kernel(self, no_kernel, sizes):
        grids = [[(i + 1) / size for i in range(size)] for size in sizes]
        with pytest.raises(ValueError, match=f"at most {MAX_SWEEP_CELLS} cells"):
            sweep_steady_state(*grids)

    def test_sweep_at_the_cap_reaches_the_kernel(self, no_kernel):
        assert 64**3 == MAX_SWEEP_CELLS
        grid = [(i + 1) / 64 for i in range(64)]
        with pytest.raises(AssertionError, match="kernel called"):
            sweep_steady_state(grid, grid, grid)

    def test_csv_shape_and_precision(self):
        rows = sweep_steady_state([0.5, 1.0], [0.5], [0.0])
        text = sweep_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "p_good,p_accept,p_success,pi0,pi1,pi2,pi3,status"
        ok_cols = lines[1].split(",")
        assert ok_cols[-1] == "ok"
        # 12 significant digits round-trip through the text form
        assert float(ok_cols[3]) == pytest.approx(rows[0].pi[0], rel=1e-11)
        bad_cols = lines[2].split(",")
        assert bad_cols[3:7] == ["", "", "", ""]
        assert bad_cols[-1] == "non_unique"

    def test_csv_matches_per_value_formatting(self):
        # Grid values are formatted once per value; the bytes must equal
        # formatting every field of every row, signed zero included.
        rows = sweep_steady_state([0.05, 0.5, 1.0], [0.3, 1.0], [-0.0, 0.0, 0.25, 1.0])
        lines = [SWEEP_CSV_HEADER]
        for row in rows:
            pi = ["", "", "", ""] if row.status == "non_unique" else [f"{x:.12g}" for x in row.pi]
            fields = [f"{x:.12g}" for x in (row.p_good, row.p_accept, row.p_success)] + pi
            lines.append(",".join(fields + [row.status]))
        text = sweep_to_csv(rows)
        assert text == "\n".join(lines) + "\n"
        assert [line.split(",")[2] for line in lines[1:5]] == ["-0", "0", "0.25", "1"]

    def test_default_grid(self):
        grid = default_grid()
        assert grid[0] == pytest.approx(0.05)
        assert grid[-1] == pytest.approx(0.95)
        assert len(grid) == 19
        assert all(0.0 < g < 1.0 for g in grid)


class TestBatchedSweep:
    # Boundary values on every axis: g = 1 and s = 0 leave two recurrent
    # classes; a = 1 and s in {0, 1} make rows deterministic.
    G = [0.05, 0.3, 0.7, 0.95, 1.0]
    A = [0.05, 0.4, 1.0]
    S = [0.0, 0.2, 0.9, 1.0]

    def test_every_cell_equals_the_single_chain_solve(self):
        rows = sweep_steady_state(self.G, self.A, self.S)
        assert len(rows) == len(self.G) * len(self.A) * len(self.S)
        for row in rows:
            try:
                expected = steady_state(row.p_good, row.p_accept, row.p_success)
            except NonUniqueStationary:
                assert row.status == "non_unique" and np.isnan(row.pi).all()
                continue
            assert row.status == "ok"
            np.testing.assert_array_equal(row.pi, expected)

    def test_non_unique_set_is_exactly_closed_loop_cells(self):
        rows = sweep_steady_state(self.G, self.A, self.S)
        non_unique = {(r.p_good, r.p_accept, r.p_success) for r in rows if r.status == "non_unique"}
        assert non_unique == {(1.0, a, 0.0) for a in self.A}

    def test_interior_cells_match_closed_form(self):
        rows = sweep_steady_state(self.G[:-1], self.A, self.S)
        for row in rows:
            expected = closed_form_pi(row.p_good, row.p_accept, row.p_success)
            np.testing.assert_allclose(row.pi, expected, rtol=0, atol=1e-12)

    def test_stack_shape_and_layout(self):
        g = np.array([[0.2, 0.5, 0.9], [0.1, 0.6, 0.8]])
        s = [[0.3], [1.0]]
        matrices = transition_matrices(g, 0.7, s)
        assert matrices.shape == (2, 3, 4, 4)
        pi, unique = stationary(g, 0.7, s)
        assert pi.shape == (2, 3, 4) and unique.shape == (2, 3) and unique.all()
        for i in range(2):
            for j in range(3):
                cell = (g[i, j], 0.7, s[i][0])
                np.testing.assert_array_equal(matrices[i, j], transition_matrices(*cell))
                np.testing.assert_array_equal(pi[i, j], steady_state(*cell))

    def test_non_unique_rows_are_nan(self):
        pi, unique = stationary([0.5, 1.0], 0.5, 0.0)
        assert unique.tolist() == [True, False]
        assert np.isnan(pi[1]).all() and not np.isnan(pi[0]).any()


# Probabilities where floating point is hardest: the ends of [0, 1], the
# smallest subnormal and normal numbers, and 1 - 2^-k up to the last double
# below 1.
EDGE_PROBABILITIES = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 1.0, 5e-324, 2.0**-1022, 1e-300, 1e-12]),
    st.floats(0.0, 2.0**-1022),
    st.integers(1, 53).map(lambda k: 1.0 - 2.0**-k),
)
EPS = Fraction(np.finfo(float).eps)
SUBNORMAL_ULP = Fraction(5e-324)


class TestAgainstExactOracle:
    """`stationary` against exact rational elimination on the balance
    system (pi) and a reachability graph (uniqueness), both in tests/oracles.py."""

    @staticmethod
    def check(g, a, s):
        pi, unique = stationary(g, a, s)
        P = exact_transition_matrix(g, a, s)
        exact = exact_stationary(P)
        assert bool(unique) == (closed_class_count(P) == 1) == (exact is not None), (g, a, s)
        if not unique:
            assert np.isnan(pi).all()
            return
        # Every component to 8 ulps, or to 4 subnormal ulps where it underflows.
        for got, want in zip(pi, exact):
            err = abs(Fraction(float(got)) - want)
            assert err <= 8 * EPS * want + 4 * SUBNORMAL_ULP, (g, a, s, pi, [float(x) for x in exact])

    @settings(max_examples=400, deadline=None)
    @given(g=EDGE_PROBABILITIES, a=EDGE_PROBABILITIES, s=EDGE_PROBABILITIES)
    def test_random_cells(self, g, a, s):
        self.check(g, a, s)

    def test_edge_cube(self):
        # Every combination of the hardest values, including the three
        # faces where uniqueness changes.
        values = [0.0, 5e-324, 1e-300, 1e-12, 0.5, 1 - 1e-9, 1 - 2.0**-53, 1.0]
        for g, a, s in itertools.product(values, repeat=3):
            self.check(g, a, s)

    def test_non_unique_set_is_the_parameter_rule(self):
        values = [0.0, 5e-324, 0.5, 1 - 2.0**-53, 1.0]
        g, a, s = (v.ravel() for v in np.meshgrid(values, values, values, indexing="ij"))
        _, unique = stationary(g, a, s)
        rule = ((g == 1) & ((a == 0) | (s == 0))) | ((g == 0) & (a == 0))
        np.testing.assert_array_equal(unique, ~rule)


class TestOldSolverFaults:
    """Cells the 0.5.0 SVD-plus-LU solver got wrong."""

    def test_near_reducible_cell_below_one_is_unique(self):
        # Called non_unique at 0.5.0: a singular value under its 1e-10 rank
        # tolerance. g < 1, so the chain is irreducible.
        pi, unique = stationary(1 - 1e-11, 0.5, 0.0)
        assert unique
        np.testing.assert_allclose(pi, [0.25, 0.5, 0.25, 0.0], rtol=1e-10)
        assert pi[3] == 0.0

    @pytest.mark.parametrize("a,s", [(0.5, 1e-11), (1e-300, 1e-300), (5e-324, 5e-324)])
    def test_gate_opened_absorbs_however_slowly_it_is_reached(self, a, s):
        # g = 1 with a, s > 0: Gate Opened is the only closed class. At 0.5.0
        # these were non_unique; a s underflows to 0 for the last two.
        pi, unique = stationary(1.0, a, s)
        assert unique
        np.testing.assert_array_equal(pi, [0.0, 0.0, 0.0, 1.0])

    def test_tiny_acceptance_has_no_negative_component(self):
        # Refused at 0.5.0 with a -2.2e-8 component from the LU solve.
        pi = steady_state(0.999999999, 1e-12, 0.0)
        assert (pi >= 0.0).all() and pi[3] == 0.0
        exact = exact_stationary(exact_transition_matrix(0.999999999, 1e-12, 0.0))
        np.testing.assert_allclose(pi, [float(x) for x in exact], rtol=1e-15)

    def test_no_success_means_gate_never_opens_on_the_benchmark_grid(self):
        # The chain-grid axes. At 0.5.0, 216 of the 600 cells with s = 0 and
        # g < 1 carried a nonzero pi3 of up to 4e-15.
        axis = [round(0.04 * k, 12) for k in range(1, 25)] + [1.0]
        s_axis = [round(0.04 * k, 12) for k in range(26)]
        rows = sweep_steady_state(axis, axis, s_axis)
        closed = (rows["p_success"] == 0.0) & (rows["p_good"] < 1.0)
        assert closed.sum() == 600
        assert (rows["pi"][closed, 3] == 0.0).all()
        assert (rows["status"] == "non_unique").sum() == 25


class TestResidualSelfCheck:
    def test_wrong_formula_raises(self, monkeypatch):
        monkeypatch.setattr(chain_module, "_closed_form", lambda g, a, s: np.full(g.shape + (4,), 0.25))
        with pytest.raises(ArithmeticError, match="stationarity residual"):
            stationary([0.5, 0.2], 0.5, 0.5)

    def test_nan_in_a_unique_cell_raises(self, monkeypatch):
        monkeypatch.setattr(chain_module, "_closed_form", lambda g, a, s: np.full(g.shape + (4,), np.nan))
        with pytest.raises(ArithmeticError):
            stationary(0.5, 0.5, 0.5)

    def test_non_unique_cells_are_not_checked(self, monkeypatch):
        monkeypatch.setattr(chain_module, "_closed_form", lambda g, a, s: np.full(g.shape + (4,), np.nan))
        pi, unique = stationary([1.0, 0.0], [0.5, 0.0], 0.0)
        assert not unique.any() and np.isnan(pi).all()
