import json
import os

import pytest

import numpy as np

from pathfinder_ops.fileio import atomic_write_text, csv_columns, fmt12, json_text


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
