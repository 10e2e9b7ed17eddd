import json
import os

import pytest

from pathfinder_ops.fileio import atomic_write_text, csv_text, fmt12, grid_formatter, json_text


class TestGridFormatter:
    def test_matches_fmt12_for_every_value(self):
        fmt = grid_formatter()
        values = [0.1, 0.1, 1 / 3, 1e-300, -2.5, 1.0, 0.1]
        assert [fmt(v) for v in values] == [fmt12(v) for v in values]

    def test_signed_zero_prints_apart(self):
        fmt = grid_formatter()
        assert [fmt(0.0), fmt(-0.0), fmt(0.0), fmt(-0.0)] == ["0", "-0", "0", "-0"]


class TestCsvText:
    def test_floats_none_and_other_values(self):
        text = csv_text(["n", "x", "kind", "star"], [(10**13, 1 / 3, "gaussian", None), (2, 0.0, "r", 0.5)])
        assert text == "n,x,kind,star\n10000000000000,0.333333333333,gaussian,\n2,0,r,0.5\n"

    def test_header_only(self):
        assert csv_text(["a", "b"], []) == "a,b\n"


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
