import errno
import json
import os
import stat
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from unittest import mock

import pytest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pathfinder_ops
from pathfinder_ops import GradientSignMap, NoiseKind
from pathfinder_ops.chain import sweep_records, sweep_steady_state, sweep_to_csv
import pathfinder_ops.worstcase as worstcase_module
import pathfinder_ops.fileio as fileio_module
from pathfinder_ops.fileio import (
    BLOCK_ROWS, FIELD_BYTES, atomic_write_text, csv_lines, float_fields, grid_csv, json_text, text_fields,
)
from pathfinder_ops.worstcase import gradient_cells_to_csv, gradient_sign_map_to_csv

from oracles import per_value_cells_csv, per_value_csv, per_value_summary_csv, per_value_sweep_csv


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


def field_texts(values) -> list[str]:
    """The text of each field `float_fields` writes for a flat array."""
    return csv_lines([float_fields(np.ravel(values))]).split("\n")[:-1]


def fmt12(values) -> list[str]:
    return ["" if v != v else f"{v:.12g}" for v in np.ravel(values).tolist()]


class TestCsvColumns:
    """The cases of the column-wise CSV writer that grid tables replaced,
    now on `float_fields`, which formats every float of every table,
    against f"{v:.12g}" value by value. Every case runs on a column of one
    copy of its values, formatted by Python alone, and of 80 copies, long
    enough for the array kernel."""

    @pytest.fixture(params=[1, 80], ids=["short", "long"])
    def reps(self, request):
        return request.param

    def test_float_column_matches_fmt12_for_every_value(self, reps):
        values = [0.1, 0.1, 1 / 3, 1e-300, -2.5, 1.0, 0.1, 5e-324, 1e300] * reps
        assert field_texts(values) == [f"{v:.12g}" for v in values]

    def test_signed_zeros_in_one_column_print_apart(self, reps):
        assert field_texts(np.array([0.0, -0.0, 0.0, -0.0] * reps)) == ["0", "-0", "0", "-0"] * reps
        assert field_texts(np.array([1.0, -1.0] * reps)) == ["1", "-1"] * reps

    def test_repeated_values_keep_their_rows(self, reps):
        alphas = np.tile([0.02, 0.5, 1 / 3], 4 * reps)
        thetas = np.repeat([0.2, 0.0, 5.2, 0.2] * reps, 3)
        for column in (alphas, thetas):
            assert field_texts(column) == [f"{v:.12g}" for v in column.tolist()]

    def test_nan_and_none_are_empty_fields(self, reps):
        assert field_texts(np.array([np.nan, 0.25, -np.nan] * reps)) == ["", "0.25", ""] * reps
        # None in a float column is NaN.
        assert field_texts([None, 0.5, None] * reps) == ["", "0.5", ""] * reps

    def test_rows_of_a_block_hold_their_values_in_turn(self, reps):
        block = np.array([[0.5, np.nan, -3e-5], [1e20, 0.0, 0.125]] * reps)
        fields = float_fields(block)
        assert fields.shape == (2 * reps, 3 * FIELD_BYTES)
        assert csv_lines([fields]).split("\n")[:2] == ["0.5,,-3e-05", "1e+20,0,0.125"]

    def test_header_only(self):
        assert float_fields([]).shape == (0, FIELD_BYTES)
        assert float_fields(np.empty((0, 4))).shape == (0, 4 * FIELD_BYTES)
        assert grid_csv(["a", "x"], [text_fields([]), np.empty((0, 1))]) == "a,x\n"

    def test_columns_of_unequal_length_are_refused(self):
        with pytest.raises(ValueError):
            grid_csv(["a", "b", "x"], [[1.0, 2.0], [1.0], [[1.0], [2.0]]])


# Each power of ten from 1e-101 to 1e13, taken as the double nearest it and
# as 10.0**k (which may be an ulp away), from 2 ulps below to 4 above.
DECADE_EDGES = np.array([
    x for k in range(-101, 14) for edge in (10.0**k, float(f"1e{k}"))
    for x in np.nextafter(edge, np.inf) + np.arange(-3, 4) * np.spacing(edge)
] + [1 - 2**-53, 1 + 2**-52, 0.99999999999949, 0.9999999999995, 0.99999999999951])


def exact_ties():
    """Every double below 1 whose decimal expansion has exactly 13
    significant digits, the last one 5: t / 2^(12 - e) for odd t, at decade
    e. Below 1e-6 there are none, as 5^(12 - e) would have to divide 13
    digits."""
    ties = []
    for e in range(-6, 0):
        scale = 2 ** (12 - e)
        lo, hi = -(-scale // 10**-e), -(-scale // 10 ** (-e - 1))
        ties += [t / scale for t in range(lo | 1, hi, 2)]
    return np.array(ties)


class TestFloatFieldsEdges:
    """The kernel's fast route, where array arithmetic stands in for
    Python's correctly rounded formatting, at the edges of its rule."""

    def test_decade_edges_and_their_neighbours(self):
        values = np.concatenate([DECADE_EDGES, -DECADE_EDGES])
        assert field_texts(values) == fmt12(values)

    def test_exact_ties_round_half_to_even(self):
        ties = exact_ties()
        assert len(ties) == 4608
        for t in ties.tolist():
            digits = Decimal(t).as_tuple().digits
            assert len(digits) == 13 and digits[-1] == 5
        values = np.concatenate([ties, -ties, np.nextafter(ties, 0), np.nextafter(ties, 1)])
        assert field_texts(values) == fmt12(values)

    def test_doubles_near_a_twelfth_digit_tie(self):
        # The double nearest a tie of M (twelve digits) at every decade of
        # the fast route, the doubles up to 3 ulps from it (within 1e-3 of
        # the tie in m), and some 2**10 and 2**20 ulps away.
        rng = np.random.default_rng(12)
        values = []
        for e in range(-99, 0):
            ties = np.array([
                float(f"{tie}5e{e - 12}") for tie in rng.integers(10**11, 10**12, 4000 if e >= -4 else 200).tolist()
            ])
            for ulps in (-2**20, -2**10, -3, -1, 0, 1, 3, 2**10, 2**20):
                values.append(ties + ulps * np.spacing(ties))
        values = np.concatenate(values)
        # Among them are values whose product with the decade's scale rounds
        # to a half-integer exactly, where rint's ties-to-even may differ
        # from rounding |v| itself: the cases the near-tie rule must send to
        # Python.
        decade = np.floor(np.log10(values))
        m = values * 10.0 ** (11 - decade)
        assert np.count_nonzero(m - np.floor(m) == 0.5) > 1500
        assert field_texts(values) == fmt12(values)

    def test_specials_and_subnormals(self):
        tiny = np.array([5e-324, 1e-310, 2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0)])
        values = np.tile(np.concatenate([
            tiny, -tiny, [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 1 - 2**-53, -(1 - 2**-53)],
        ]), 20)
        assert field_texts(values) == fmt12(values)

    def test_a_million_random_bit_patterns(self):
        values = np.random.default_rng(6).integers(0, 2**64, 10**6, dtype=np.uint64).view(float)
        assert field_texts(values) == fmt12(values)

    def test_random_values_of_the_fast_route(self):
        rng = np.random.default_rng(4)
        values = rng.random(10**5) * 10.0 ** rng.integers(-99, 1, 10**5)
        values[::2] *= -1
        assert field_texts(values) == fmt12(values)

    @settings(max_examples=300, deadline=None)
    @given(sized(st.floats(), 400))
    def test_any_floats(self, values):
        # Lengths are drawn uniformly, so most lists reach the kernel.
        assert field_texts(values) == fmt12(values)

    def test_python_formats_only_what_the_kernel_cannot(self, monkeypatch):
        # Values log-uniform in [1e-99, 1), with zeros, ones and NaN: Python
        # formats only the near-ties, about 0.2% of the rest.
        seen = []
        real = fileio_module._python_fields
        monkeypatch.setattr(fileio_module, "_python_fields", lambda v: seen.append(v.size) or real(v))
        values = 10.0 ** np.random.default_rng(1).uniform(-99, 0, 10**5)
        values[::10], values[1::10], values[2::10] = 0.0, 1.0, np.nan
        assert field_texts(values) == fmt12(values)
        assert sum(seen) < 500
        # A call of fewer values is formatted by Python alone.
        seen.clear()
        few = values[: fileio_module._KERNEL_MIN_VALUES - 1]
        assert field_texts(few) == fmt12(few)
        assert seen == [few.size]


class TestTextFields:
    def test_ascii_and_utf8_texts(self):
        for texts in (["ok", "non_unique", ""], ["é", "ok", "Zürich"]):
            assert csv_lines([text_fields(texts)]).split("\n")[:-1] == texts

    def test_a_numpy_string_column(self):
        status = np.array(["ok", "non_unique", "ok"], dtype="U10")
        assert csv_lines([text_fields(status)]) == "ok\nnon_unique\nok\n"


class TestGridCsv:
    def test_keys_values_and_tails_line_by_line(self):
        text = grid_csv(
            ["k", "x", "y", "t"],
            [text_fields(["a", "b"]), [[0.1, np.nan], [-0.0, 1e300]], text_fields(["ok", "s"])],
        )
        assert text == "k,x,y,t\na,0.1,,ok\nb,-0,1e+300,s\n"

    def test_percent_signs_print_as_themselves(self):
        text = grid_csv(["%d", "x", "t"], [text_fields(["5%", "%.12g%%"]), [[1.5], [np.nan]],
                                          text_fields(["%s", "%s"])])
        assert text == "%d,x,t\n5%,1.5,%s\n%.12g%%,,%s\n"

    def test_header_only(self):
        assert grid_csv(["a", "x"], [text_fields([]), np.empty((0, 1))]) == "a,x\n"

    def test_parts_of_unequal_length_are_refused(self):
        with pytest.raises(ValueError):
            grid_csv(["a", "x"], [text_fields(["p"]), [[1.0], [2.0]]])
        with pytest.raises(ValueError):
            csv_lines([text_fields(["p"]), float_fields([1.0, 2.0])])

    @pytest.mark.parametrize("block_rows", [1, 3, BLOCK_ROWS])
    def test_blocks_join_into_one_table(self, block_rows):
        values = scattered_values(8, 3 * 50).reshape(50, 3)
        keys = [f"k{i}" for i in range(50)]
        with mock.patch.object(fileio_module, "BLOCK_ROWS", block_rows):
            text = grid_csv(["k", "a", "b", "c"], [text_fields(keys), values])
        assert text == per_value_csv(["k", "a", "b", "c"], [(k, *row) for k, row in zip(keys, values.tolist())])


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
        assert "".join(gradient_cells_to_csv(gmap)) == per_value_cells_csv(gmap)

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
        text = "".join(gradient_cells_to_csv(gmap))
        assert text == per_value_cells_csv(gmap)
        assert text.splitlines()[3:] == ["5,2,gaussian,0,1e-300,", "5,2,gaussian,0.5,1e-300,-1e-13",
                                          "5,2,gaussian,0,3,inf", "5,2,gaussian,0.5,3,-inf"]

    def test_gradient_cells_with_signed_zero_nan_and_inf_grids(self):
        alphas, thetas = [-0.0, 0.0, np.nan, np.inf], [np.inf, -0.0, np.nan]
        gmap = hand_built_map([3, 10**30], [1.0, np.inf], alphas, thetas, np.arange(48.0) - 24.0)
        text = "".join(gradient_cells_to_csv(gmap))
        assert text == per_value_cells_csv(gmap)
        assert text.splitlines()[1:5] == ["3,1,gaussian,-0,inf,-24", "3,1,gaussian,0,inf,-23",
                                          "3,1,gaussian,,inf,-22", "3,1,gaussian,inf,inf,-21"]

    def test_no_rows(self):
        gmap = hand_built_map([], [2.0], [0.5], [1.0], [])
        assert "".join(gradient_cells_to_csv(gmap)) == per_value_cells_csv(gmap)
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
        assert grid_csv(header, [block]) == per_value_csv(header, zip(*columns))

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


def per_value_blocks(gmap, block_rows):
    """The per-value cell dump cut where the writer must cut it: the header,
    then the lines in runs of `block_rows`, across instances."""
    header, *lines = [line + "\n" for line in per_value_cells_csv(gmap)[:-1].split("\n")]
    return [header] + ["".join(lines[i : i + block_rows]) for i in range(0, len(lines), block_rows)]


class TestGradientCellsInBlocks:
    """`gradient_cells_to_csv` yields the header, then blocks of BLOCK_ROWS
    lines (the last may be shorter), which may span instances, and holds no
    text per cell."""

    @settings(max_examples=100, deadline=None)
    @given(gmap=gradient_maps(), block_rows=st.integers(1, 8))
    def test_blocks_hold_block_rows_lines_across_instances(self, gmap, block_rows):
        with mock.patch.object(worstcase_module, "BLOCK_ROWS", block_rows):
            blocks = list(gradient_cells_to_csv(gmap))
        assert blocks == per_value_blocks(gmap, block_rows)

    @pytest.mark.parametrize("block_rows", [1, 2, 5, BLOCK_ROWS])
    def test_nan_inf_and_percent_signs_in_blocks(self, block_rows):
        # n texts holding "%" print as themselves; NaN cells, on both sides
        # of block edges, are empty fields.
        grads = np.array([np.nan, np.inf, -0.0, np.nan, np.nan, 1e-300, -np.inf, 2.5] * 3)
        gmap = hand_built_map(["5%", "%d%%"], [2.0, np.nan], [0.0, 0.5, np.nan], [1.0, np.inf], grads)
        with mock.patch.object(worstcase_module, "BLOCK_ROWS", block_rows):
            blocks = list(gradient_cells_to_csv(gmap))
        assert blocks == per_value_blocks(gmap, block_rows)
        assert "".join(blocks[1:]).startswith("5%,2,gaussian,0,1,\n5%,2,gaussian,0.5,1,inf\n")

    def test_instances_longer_than_a_block(self):
        alphas = [i / 99 for i in range(100)]
        thetas = [i / 10 for i in range(90)]
        grads = scattered_values(3, 2 * len(alphas) * len(thetas))
        gmap = hand_built_map([2, 10], [1.0], alphas, thetas, grads)
        blocks = list(gradient_cells_to_csv(gmap))
        assert [block.count("\n") for block in blocks] == [1] + [BLOCK_ROWS] * 4 + [1616]
        assert blocks == per_value_blocks(gmap, BLOCK_ROWS)

    def test_writing_a_one_instance_dump_peaks_under_32_bytes_a_cell(self, tmp_path):
        side = 512
        gmap = hand_built_map([5], [2.0], [i / side for i in range(side)],
                              [i / 50 for i in range(side)], scattered_values(5, side * side))
        path = str(tmp_path / "cells.csv")
        atomic_write_text(path, gradient_cells_to_csv(gmap))  # warm up
        tracemalloc.start()
        try:
            atomic_write_text(path, gradient_cells_to_csv(gmap))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cells = side * side
        assert cells == 2**18
        assert peak < 32 * cells, f"{peak / cells:.1f} bytes a cell"
        with open(path, encoding="utf-8", newline="") as handle:
            assert handle.read() == per_value_cells_csv(gmap)


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


def test_atomic_write_of_chunks_writes_their_concatenation(tmp_path):
    path = tmp_path / "out.txt"
    chunks = ["a,b\n", "", "é,\"q\"\n" * 3, "z\n"]
    atomic_write_text(str(path), (chunk for chunk in chunks))
    assert path.read_bytes() == "".join(chunks).encode("utf-8")
    assert os.listdir(tmp_path) == ["out.txt"]


def test_atomic_write_of_chunks_that_fail_leaves_nothing(tmp_path):
    def chunks():
        yield "first\n"
        raise RuntimeError("no second chunk")

    path = tmp_path / "out.txt"
    with pytest.raises(RuntimeError, match="no second chunk"):
        atomic_write_text(str(path), chunks())
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


def package_env() -> dict:
    """The environment with this package's source first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(pathfinder_ops.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


# The umask is set in a fresh interpreter before the package is imported.
WRITE_UNDER_UMASK = """
import os, sys
os.umask(int(sys.argv[1], 8))
from pathfinder_ops.fileio import atomic_write_text
for path in sys.argv[2:]:
    atomic_write_text(path, "x\\n")
"""


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o002, 0o664)], ids=["022", "002"])
def test_written_file_gets_the_mode_open_gives_a_new_file(tmp_path, umask, mode):
    old = tmp_path / "old.txt"
    old.write_text("")
    old.chmod(0o644)
    argv = [sys.executable, "-c", WRITE_UNDER_UMASK, oct(umask), str(tmp_path / "new.txt"), str(old)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()}
    assert modes == {"new.txt": mode, "old.txt": mode}
    assert old.read_text() == "x\n"


def test_written_file_follows_a_umask_set_after_the_import(tmp_path):
    old_umask = os.umask(0o027)
    try:
        atomic_write_text(str(tmp_path / "atomic.txt"), "x\n")
        with open(tmp_path / "plain.txt", "w"):
            pass
    finally:
        os.umask(old_umask)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()}
    assert modes == {"atomic.txt": 0o640, "plain.txt": 0o640}


IMPORT_WITHOUT_UMASK = """
import os
def umask(mask):
    raise SystemExit(f"os.umask({mask:#o}) called")
os.umask = umask
import pathfinder_ops, pathfinder_ops.cli, pathfinder_ops.fileio
"""


def test_importing_the_package_never_calls_umask():
    argv = [sys.executable, "-c", IMPORT_WITHOUT_UMASK]
    proc = subprocess.run(argv, capture_output=True, text=True, env=package_env())
    assert (proc.returncode, proc.stderr) == (0, "")
