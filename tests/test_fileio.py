import errno
import json
import os

import pytest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pathfinder_ops import GradientSignMap, NoiseKind
from pathfinder_ops.chain import sweep_records, sweep_steady_state, sweep_to_csv
from pathfinder_ops.fileio import atomic_write_text, column_fields, grid_csv, json_text
from pathfinder_ops.worstcase import gradient_cells_to_csv, gradient_sign_map_to_csv

from oracles import per_value_cells_csv, per_value_csv, per_value_summary_csv, per_value_sweep_csv


class TestCsvColumns:
    """The cases of the column-wise CSV writer that grid tables replaced,
    now on `column_fields`, which formats the float key columns of every
    grid table."""

    # Every case runs on one copy of its column and on 40 copies.
    @pytest.fixture(params=[1, 40], ids=["short", "long"])
    def reps(self, request):
        return request.param

    def test_float_column_matches_fmt12_for_every_value(self, reps):
        values = [0.1, 0.1, 1 / 3, 1e-300, -2.5, 1.0, 0.1, 5e-324, 1e300] * reps
        assert column_fields(values) == [f"{v:.12g}" for v in values]

    def test_signed_zeros_in_one_column_print_apart(self, reps):
        assert column_fields(np.array([0.0, -0.0, 0.0, -0.0] * reps)) == ["0", "-0", "0", "-0"] * reps

    def test_repeated_values_keep_their_rows(self, reps):
        alphas = np.tile([0.02, 0.5, 1 / 3], 4 * reps)
        thetas = np.repeat([0.2, 0.0, 5.2, 0.2] * reps, 3)
        for column in (alphas, thetas):
            assert column_fields(column) == [f"{v:.12g}" for v in column.tolist()]

    def test_nan_and_none_are_empty_fields(self, reps):
        assert column_fields(np.array([np.nan, 0.25, -np.nan] * reps)) == ["", "0.25", ""] * reps
        # None in a float column is NaN.
        assert column_fields([None, 0.5, None] * reps) == ["", "0.5", ""] * reps

    def test_header_only(self):
        assert column_fields([]) == column_fields(np.array([])) == []
        assert grid_csv(["a", "x"], [column_fields([])], np.empty((0, 1))) == "a,x\n"

    def test_columns_of_unequal_length_are_refused(self):
        with pytest.raises(ValueError):
            grid_csv(["a", "b", "x"], [column_fields([1.0, 2.0]), column_fields([1.0])],
                     [[1.0], [2.0]])


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


def hand_built_map(n_values, u_abs_values, alphas, thetas, grads, kind=NoiseKind.GAUSSIAN):
    """A GradientSignMap over the given grids with the given dW/dtheta
    values and a made-up fraction_negative."""
    shape = (len(n_values), len(u_abs_values), len(thetas), len(alphas))
    return GradientSignMap(
        tuple(n_values), np.array(u_abs_values, dtype=float), kind, np.array(alphas, dtype=float),
        np.array(thetas, dtype=float), np.reshape(grads, shape), np.full(shape[:2], 0.5),
    )


@st.composite
def gradient_maps(draw):
    """Hand-built maps of 1-3 n values of one int type, 1-40 |U| values,
    1-40 alphas and 1-3 thetas."""
    # Lists of a drawn length: hypothesis rarely draws long lists otherwise.
    int_type = draw(st.sampled_from([int, np.int64, np.int32]))
    n_values = [int_type(n) for n in draw(sized(st.integers(1, 10**6), 3))]
    u_abs_values = draw(sized(WIDE, 40))
    alphas = draw(sized(st.floats(0, 1) | st.just(-0.0), 40))
    thetas = draw(sized(WIDE | st.just(0.0), 3))
    size = len(n_values) * len(u_abs_values) * len(alphas) * len(thetas)
    grads = scattered_values(draw(st.integers(0, 2**32 - 1)), size)
    return hand_built_map(n_values, u_abs_values, alphas, thetas, grads,
                          draw(st.sampled_from(list(NoiseKind))))


class TestGridTablesMatchPerCellColumns:
    """Every grid table against a writer that formats each field of each
    row on its own."""

    @settings(max_examples=100, deadline=None)
    @given(gmap=gradient_maps())
    def test_gradient_cells(self, gmap):
        assert gradient_cells_to_csv(gmap) == per_value_cells_csv(gmap)

    @settings(max_examples=100, deadline=None)
    @given(
        n_values=sized(st.integers(1, 2**62).map(int) | st.integers(1, 2**62).map(np.int64)
                       | st.sampled_from([2**63, 10**30]), 40),
        u_abs_values=sized(WIDE, 3),
        fractions=st.lists(st.floats(0, 1), min_size=120, max_size=120),
    )
    def test_gradient_summary(self, n_values, u_abs_values, fractions):
        # n may exceed int64, as 2**63 and 10**30 do; it prints as the int
        # it is, beside small ones too.
        gmap = hand_built_map(n_values, u_abs_values, [0.5], [1.0],
                              np.zeros(len(n_values) * len(u_abs_values)))
        gmap.fraction_negative.flat = fractions[: gmap.fraction_negative.size]
        text = gradient_sign_map_to_csv(gmap)
        assert text == per_value_summary_csv(gmap)
        for big in (2**63, 10**30):
            assert (f"\n{big}," in text) == (big in n_values)

    def test_gradient_cells_with_nan_and_inf_gradients(self):
        grads = np.array([0.0, -0.0, np.nan, -1e-13, np.inf, -np.inf])
        gmap = hand_built_map([np.int64(5)], [2.0], [0.0, 0.5], [0.0, 1e-300, 3.0], grads)
        text = gradient_cells_to_csv(gmap)
        assert text == per_value_cells_csv(gmap)
        assert text.splitlines()[3:] == ["5,2,gaussian,0,1e-300,", "5,2,gaussian,0.5,1e-300,-1e-13",
                                          "5,2,gaussian,0,3,inf", "5,2,gaussian,0.5,3,-inf"]

    def test_gradient_cells_with_signed_zero_nan_and_inf_grids(self):
        alphas, thetas = [-0.0, 0.0, np.nan, np.inf], [np.inf, -0.0, np.nan]
        gmap = hand_built_map([3, 10**30], [1.0, np.inf], alphas, thetas, np.arange(48.0) - 24.0)
        text = gradient_cells_to_csv(gmap)
        assert text == per_value_cells_csv(gmap)
        assert text.splitlines()[1:5] == ["3,1,gaussian,-0,inf,-24", "3,1,gaussian,0,inf,-23",
                                          "3,1,gaussian,,inf,-22", "3,1,gaussian,inf,inf,-21"]

    def test_no_rows(self):
        gmap = hand_built_map([], [2.0], [0.5], [1.0], [])
        assert gradient_cells_to_csv(gmap) == per_value_cells_csv(gmap)
        assert gradient_sign_map_to_csv(gmap) == per_value_summary_csv(gmap)

    @settings(max_examples=100, deadline=None)
    @given(
        columns=st.integers(1, 40).flatmap(lambda rows: st.lists(
            st.lists(WIDE | st.sampled_from([0.0, -0.0, np.inf, -np.inf]),
                     min_size=rows, max_size=rows) | st.just([None] * rows),
            min_size=1, max_size=6)),
    )
    def test_worst_table(self, columns):
        # The worst table is one float block; a missing alpha* is None in
        # the JSON and NaN in the block, an empty field either way.
        header = [f"c{i}" for i in range(len(columns))]
        block = np.array(columns, dtype=float).T
        assert grid_csv(header, [], block) == per_value_csv(header, zip(*columns))

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
        assert sweep_to_csv(records) == per_value_sweep_csv(records)
        cells = len(records)
        pi = scattered_values(seed, 4 * cells).reshape(cells, 4)
        unique = np.random.default_rng(seed).random(cells) < 0.7
        built = sweep_records(records["p_good"], records["p_accept"], records["p_success"], pi, unique)
        assert sweep_to_csv(built) == per_value_sweep_csv(built)

    def test_sweep_with_non_unique_cells_on_both_sides_of_the_short_column(self):
        for size in (2, 40):
            g_grid = [i / size for i in range(1, size + 1)]
            records = sweep_steady_state(g_grid, [0.5], [0.0, 0.25])
            assert (records["status"] == "non_unique").sum() == 1
            assert sweep_to_csv(records) == per_value_sweep_csv(records)


def test_json_text_is_sorted_indented_and_newline_terminated():
    text = json_text({"b": [1.5, None], "a": True})
    assert text == '{\n  "a": true,\n  "b": [\n    1.5,\n    null\n  ]\n}\n'
    assert json.loads(text) == {"a": True, "b": [1.5, None]}


def test_atomic_write_leaves_no_temp_file(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(str(path), "x\n")
    assert path.read_text() == "x\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_atomic_write_into_missing_directory_names_the_target(tmp_path):
    path = str(tmp_path / "missing" / "out.txt")
    with pytest.raises(FileNotFoundError) as info:
        atomic_write_text(path, "x\n")
    assert info.value.filename == path
    assert ".tmp-" not in str(info.value)


def test_atomic_write_failure_leaves_nothing(tmp_path):
    with pytest.raises(TypeError):
        atomic_write_text(str(tmp_path / "out.txt"), None)
    assert os.listdir(tmp_path) == []


def test_atomic_write_onto_a_directory_names_the_target(tmp_path):
    path = str(tmp_path / "adir")
    os.mkdir(path)
    with pytest.raises(IsADirectoryError) as info:
        atomic_write_text(path, "x\n")
    assert (info.value.filename, info.value.filename2) == (path, None)
    assert os.listdir(tmp_path) == ["adir"] and os.listdir(path) == []


def test_failed_write_names_the_target_and_leaves_nothing(tmp_path, monkeypatch):
    real_fdopen = os.fdopen

    class FullDisk:
        def __init__(self, fd, *args, **kwargs):
            self.handle = real_fdopen(fd, *args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "fdopen", FullDisk)
    path = str(tmp_path / "out.txt")
    with pytest.raises(OSError) as info:
        atomic_write_text(path, "x\n")
    assert str(info.value) == f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: {path!r}"
    assert os.listdir(tmp_path) == []
