"""The README's examples run as written: its config block, with the `//`
comments stripped, through every subcommand that reads a config, and each
of its python blocks in a directory that holds a corpus."""

import csv
import json
import pathlib
import re

import pytest

from pathfinder_ops.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
FIXTURE = ROOT / "tests" / "data" / "fixture_corpus.csv"


def blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.MULTILINE | re.DOTALL)


PYTHON_BLOCKS = blocks("python")


def test_the_readme_has_its_examples():
    assert len(blocks("jsonc")) == 1 and PYTHON_BLOCKS


@pytest.mark.parametrize("command", ["steady", "worst", "gradmap", "simulate"])
def test_config_block(tmp_path, capsys, command):
    (block,) = blocks("jsonc")
    config = tmp_path / "examples.json"
    config.write_text(json.dumps(json.loads(re.sub(r"//.*", "", block))))
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.stat().st_size > 0


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_python_block(tmp_path, monkeypatch, index):
    # The fixture without its ground-truth label column is a corpus.
    with open(FIXTURE, newline="") as source, open(tmp_path / "corpus.csv", "w", newline="") as out:
        csv.writer(out).writerows(row[:3] for row in csv.reader(source))
    monkeypatch.chdir(tmp_path)
    exec(compile(PYTHON_BLOCKS[index], f"README.md python block {index}", "exec"), {})
