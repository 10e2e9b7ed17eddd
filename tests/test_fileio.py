import json
import os

import pytest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pathfinder_ops import GradientSignRow, NoiseKind
from pathfinder_ops.chain import sweep_records, sweep_steady_state, sweep_to_csv
from pathfinder_ops.fileio import (
    _SHORT_COLUMN,
    atomic_write_text,
    csv_columns,
    fmt12,
    grid_csv,
    json_text,
)
from pathfinder_ops.worstcase import gradient_cells_to_csv

from oracles import columns_sweep_csv, repeated_keys_cells_csv


class TestCsvColumns:
    # Columns of fewer than 32 values are formatted value by value, longer
    # ones once per distinct value: every case runs both ways.
    @pytest.fixture(params=[1, 40], ids=["short", "long"])
    def reps(self, request):
        return request.param

    def test_float_column_matches_fmt12_for_every_value(self, reps):
        values = [0.1, 0.1, 1 / 3, 1e-300, -2.5, 1.0, 0.1, 5e-324, 1e300] * reps
        assert csv_columns(["x"], [values]) == "x\n" + "".join(fmt12(v) + "\n" for v in values)

    def test_signed_zeros_in_one_column_print_apart(self, reps):
        text = csv_columns(["x"], [np.array([0.0, -0.0, 0.0, -0.0] * reps)])
        assert text == "x\n" + "0\n-0\n0\n-0\n" * reps

    def test_repeated_values_keep_their_rows(self, reps):
        alphas = np.tile([0.02, 0.5, 1 / 3], 4 * reps)
        thetas = np.repeat([0.2, 0.0, 5.2, 0.2] * reps, 3)
        lines = csv_columns(["a", "t"], [alphas, thetas]).splitlines()
        assert lines[1:] == [f"{fmt12(a)},{fmt12(t)}" for a, t in zip(alphas, thetas)]

    def test_nan_and_none_are_empty_fields(self, reps):
        text = csv_columns(
            ["pi", "star", "label"],
            [
                np.array([np.nan, 0.25, -np.nan] * reps),
                [None, None, None] * reps,
                ["ok", None, "x"] * reps,
            ],
        )
        assert text == "pi,star,label\n" + ",,ok\n0.25,,\n,,x\n" * reps

    def test_int_and_str_columns(self, reps):
        columns = [[10**13, 2], [1 / 3, 0.0], ["gaussian", "r"], [None, 0.5], [2**70, 2]]
        text = csv_columns(["n", "x", "kind", "star", "big"], [c * reps for c in columns])
        assert text == "n,x,kind,star,big\n" + (
            "10000000000000,0.333333333333,gaussian,,1180591620717411303424\n"
            "2,0,r,0.5,2\n"
        ) * reps

    def test_header_only(self):
        assert csv_columns(["a", "b"], [[], np.array([])]) == "a,b\n"

    def test_columns_of_unequal_length_are_refused(self):
        with pytest.raises(ValueError):
            csv_columns(["a", "b"], [[1.0, 2.0], [1.0]])


class TestGridCsv:
    def test_keys_values_and_tails_line_by_line(self):
        text = grid_csv(
            ["k", "x", "y", "t"], [["a", "b"]], [[0.1, np.nan], [-0.0, 1e300]], [["ok", "s"]]
        )
        assert text == "k,x,y,t\na,0.1,,ok\nb,-0,1e+300,s\n"

    def test_a_str_part_stands_for_every_line(self):
        text = grid_csv(["k", "j", "x"], ["7", ["a", "b"]], [[1 / 3], [2.0]], ["z"])
        assert text == "k,j,x\n7,a,0.333333333333,z\n7,b,2,z\n"

    def test_percent_signs_print_as_themselves(self):
        text = grid_csv(["%d", "x"], [["5%", "%.12g%%"]], [[1.5], [np.nan]], ["%s"])
        assert text == "%d,x\n5%,1.5,%s\n%.12g%%,,%s\n"

    def test_header_only(self):
        assert grid_csv(["a", "x"], [[]], np.empty((0, 1))) == "a,x\n"

    def test_parts_of_unequal_length_are_refused(self):
        with pytest.raises(ValueError):
            grid_csv(["a", "x"], [["p"]], [[1.0], [2.0]])


# Values of every size, with the floats that print apart: signed zeros, the
# least subnormal, infinities and NaN (an empty field).
SPECIALS = np.array([0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan, 1e300, -1e-300])
WIDE = st.floats(1e-300, 1e300)


def scattered_values(seed, size):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    special = rng.random(size) < 0.1
    values[special] = rng.choice(SPECIALS, int(special.sum()))
    return values


@st.composite
def sized(draw, elements, most):
    """A list of 1 to `most` elements, its length drawn first."""
    size = draw(st.integers(1, most))
    return draw(st.lists(elements, min_size=size, max_size=size))


@st.composite
def gradient_rows(draw):
    """Hand-built map rows over one or two grids of 1-40 alphas and 1-3
    thetas, under 1-40 (n, |U|, kind) keys: both sides of _SHORT_COLUMN."""
    # Lists of a drawn length: hypothesis rarely draws long lists otherwise.
    grids = [
        (draw(sized(st.floats(0, 1) | st.just(-0.0), 40)), draw(sized(WIDE | st.just(0.0), 3)))
        for _ in range(draw(st.integers(1, 2)))
    ]
    keys = draw(sized(
        st.tuples(
            st.integers(1, 10**6),
            st.sampled_from([int, np.int64, np.int32]),
            WIDE,
            st.sampled_from(list(NoiseKind)),
            st.integers(0, len(grids) - 1),
        ),
        40,
    ))
    rng_seed = draw(st.integers(0, 2**32 - 1))
    rows = []
    for i, (n, int_type, u_abs, kind, grid) in enumerate(keys):
        alphas, thetas = (np.array(axis) for axis in grids[grid])
        grads = scattered_values(rng_seed + i, alphas.size * thetas.size)
        cells = np.column_stack([np.tile(alphas, thetas.size), np.repeat(thetas, alphas.size), grads])
        rows.append(GradientSignRow(int_type(n), u_abs, kind, 0.5, cells))
    return rows


class TestGridTablesMatchPerCellColumns:
    @settings(max_examples=150, deadline=None)
    @given(rows=gradient_rows())
    def test_gradient_cells(self, rows):
        assert gradient_cells_to_csv(rows) == repeated_keys_cells_csv(rows)

    def test_gradient_cells_with_nan_and_inf_gradients(self):
        alphas, thetas = np.array([0.0, 0.5]), np.array([0.0, 1e-300, 3.0])
        grads = np.array([0.0, -0.0, np.nan, -1e-13, np.inf, -np.inf])
        cells = np.column_stack([np.tile(alphas, 3), np.repeat(thetas, 2), grads])
        rows = [GradientSignRow(np.int64(5), 2.0, NoiseKind.GAUSSIAN, 0.5, cells)]
        text = gradient_cells_to_csv(rows)
        assert text == repeated_keys_cells_csv(rows)
        assert text.splitlines()[3:] == ["5,2,gaussian,0,1e-300,", "5,2,gaussian,0.5,1e-300,-1e-13",
                                          "5,2,gaussian,0,3,inf", "5,2,gaussian,0.5,3,-inf"]

    def test_no_rows(self):
        assert gradient_cells_to_csv([]) == repeated_keys_cells_csv([])

    @settings(max_examples=150, deadline=None)
    @given(
        grids=st.tuples(
            sized(st.floats(1e-300, 1.0) | st.just(1.0), 40),
            sized(st.floats(1e-300, 1.0), 3),
            sized(st.floats(0.0, 1.0) | st.just(0.0), 3),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sweeps(self, grids, seed):
        # Solved sweeps, whose non-unique cells (g = 1 with s = 0) have an
        # all-NaN pi, and hand-built records with NaN anywhere in pi.
        records = sweep_steady_state(*grids)
        assert sweep_to_csv(records) == columns_sweep_csv(records)
        cells = len(records)
        pi = scattered_values(seed, 4 * cells).reshape(cells, 4)
        unique = np.random.default_rng(seed).random(cells) < 0.7
        built = sweep_records(records["p_good"], records["p_accept"], records["p_success"], pi, unique)
        assert sweep_to_csv(built) == columns_sweep_csv(built)

    def test_sweep_with_non_unique_cells_on_both_sides_of_the_short_column(self):
        for size in (2, _SHORT_COLUMN + 8):
            g_grid = [i / size for i in range(1, size + 1)]
            records = sweep_steady_state(g_grid, [0.5], [0.0, 0.25])
            assert (records["status"] == "non_unique").sum() == 1
            assert sweep_to_csv(records) == columns_sweep_csv(records)


def test_json_text_is_sorted_indented_and_newline_terminated():
    text = json_text({"b": [1.5, None], "a": True})
    assert text == '{\n  "a": true,\n  "b": [\n    1.5,\n    null\n  ]\n}\n'
    assert json.loads(text) == {"a": True, "b": [1.5, None]}


def test_atomic_write_leaves_no_temp_file(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(str(path), "x\n")
    assert path.read_text() == "x\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_atomic_write_failure_leaves_nothing(tmp_path):
    with pytest.raises(TypeError):
        atomic_write_text(str(tmp_path / "out.txt"), None)
    assert os.listdir(tmp_path) == []
