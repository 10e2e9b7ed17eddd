"""Property test of the CLI contract.

Each case takes a small valid config for one subcommand, changes one thing
(a value, a missing or unknown key, a whole section) and calls main(). The
contract holds whatever the config: the exit code is 0, 2 or 3, a failure
prints exactly one `error[...]` line and leaves nothing at --out, nothing
raises, and nothing warns. Values above every size cap stay in the
strategies; validation must refuse them.

The `classify` cases make one change to a valid corpus or rules file (a
byte, a field, a quote, a timestamp or the flight-number pattern) and check
the same contract; a failure there must also leave no `.tmp-` file behind.
"""

import contextlib
import csv
import io
import json
import math
import os
import pkgutil
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pathfinder_ops.cli import main

SCN = {"n": 4, "u_minus": -1.5, "u_plus": 1.5, "beta": 1.0, "delta": 0.1}

VALID = {
    "steady": {"chain": {"p_good": [0.2, 0.6], "p_accept": 0.5, "p_success": [0.0, 1.0]}},
    "worst": {
        "worst_case": dict(SCN, alpha_grid=[0.0, 0.5, 1.0]),
        "social": {"s": 0.5, "gamma": 1.0, "r": 0.25},
        "noise": {"kind": "gaussian", "theta": 0.5, "gh_nodes": 7},
    },
    "gradmap": {
        "gradmap": {
            "n_values": [2, 5],
            "u_abs_values": [1.0, 2.0],
            "alpha_grid": [0.0, 0.5, 1.0],
            "theta_grid": [0.0, 1.0],
            "beta": 1.0,
        },
        "noise": {"kind": "gaussian", "theta": 0.5, "gh_nodes": 7},
    },
    "simulate": {
        "chain": {"p_good": 0.5, "p_accept": 0.8, "p_success": 0.9},
        "worst_case": dict(SCN),
        "sim": {"seed": 3, "steps": 1000, "burn_in": 10, "rounds": 100, "alpha": 0.5},
    },
}

HUGE_INTS = [10**12, 2**63, 2**64, 10**30, 10**400, -(10**12), -(2**63)]

scalars = st.one_of(
    st.sampled_from(
        [True, False, None, "2", "0.5", "1e3", "-inf", "nan", "gaussian", "", -1, 0, 1, 2, 7]
        + HUGE_INTS
    ),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 3),
)
# Lists and objects, nested: short lists of numbers and wrong-typed junk.
junk = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def mutated(draw, command):
    """The command's valid config with one key, section or value changed,
    and the (section, key) whose value changed (None for other changes)."""
    doc = json.loads(json.dumps(VALID[command]))
    section = draw(st.sampled_from(sorted(doc)))
    action = draw(st.sampled_from(["value", "value", "value", "drop", "unknown-key", "section", "new-section"]))
    if action == "value":
        key = draw(st.sampled_from(sorted(doc[section])))
        doc[section][key] = draw(junk)
        return doc, (section, key)
    elif action == "drop":
        del doc[section][draw(st.sampled_from(sorted(doc[section])))]
    elif action == "unknown-key":
        doc[section][draw(st.sampled_from(["bogus", "theta_grid", "alpha", "n"]))] = draw(junk)
    elif action == "section":
        doc[section] = draw(junk)
    else:
        doc[draw(st.sampled_from(["bogus", "chain", "social", "noise", "sim", "gradmap"]))] = draw(junk)
    return doc, None


def run(command, doc):
    """(exit code, stdout, stderr, warnings, whether --out exists)."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "config.json")
        out = os.path.join(tmp, "out")
        with open(cfg, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)  # NaN and Infinity become JSON literals
        argv = [command, "--config", cfg, "--out", out]
        if command == "simulate":
            argv.append("--compare-analytic")
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        return code, stdout.getvalue(), stderr.getvalue(), caught, os.path.exists(out)


def check_contract(command, doc):
    code, stdout, stderr, caught, wrote = run(command, doc)
    assert code in (0, 2, 3), (code, stderr)
    assert not caught, [str(w.message) for w in caught]
    assert stdout == ""
    if code == 0:
        assert stderr == "" and wrote
    else:
        lines = stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error["), stderr
        assert not wrote
    return code, stderr


@pytest.mark.parametrize("command", sorted(VALID))
def test_valid_configs_succeed(command):
    assert check_contract(command, VALID[command]) == (0, "")


@pytest.mark.parametrize("command", sorted(VALID))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_contract_holds_for_any_single_change(command, data):
    doc, changed = data.draw(mutated(command))
    code, _ = check_contract(command, doc)
    if changed is not None:
        section, key = changed
        value = doc[section][key]
        # No key takes a boolean, null, object or non-finite number, and only
        # noise.kind takes a string.
        if (
            value is None
            or isinstance(value, (bool, dict))
            or (isinstance(value, str) and changed != ("noise", "kind"))
            or (isinstance(value, float) and not math.isfinite(value))
        ):
            assert code == 2, (changed, value)


@pytest.mark.parametrize("command", sorted(VALID))
@pytest.mark.parametrize("value", HUGE_INTS + [float("nan"), float("inf"), -float("inf")])
def test_huge_and_non_finite_values_never_succeed_as_sizes(command, value):
    # Every integer key of the command set to a huge or non-finite value:
    # each is refused, or (for keys that are not sizes) computed without fault.
    doc = VALID[command]
    for section, body in doc.items():
        for key, old in body.items():
            if type(old) is int:
                changed = json.loads(json.dumps(doc))
                changed[section][key] = value
                code, _ = check_contract(command, changed)
                if key in ("steps", "rounds", "burn_in", "gh_nodes") or not isinstance(value, int):
                    assert code == 2, (section, key, value)


# --- classify: one change to a valid corpus or rules file ---------------------

CORPUS_ROWS = [
    ["timestamp", "facility", "comment"],
    ["2024-01-01T00:00:00+00:00", "ZNY", "requesting pathfinder for J80"],
    ["2024-01-01T00:05:00Z", "ZDC", "UAL123 assigned, departing now"],
    ["2024-01-01T00:10:00.250-05:00", "ZBW", "pathfinder didn’t make it"],
    ["2024-01-01 00:15:00", "ZOB", 'declined: "no pathfinder"'],
    ["2024-01-01T00:20:00+05:30", "ZNY", "can we get one over ZZV"],
]
RULES = json.loads(pkgutil.get_data("pathfinder_ops", "data/default_rules.json"))

# Stamps near the edge of what the reader takes: other separators, fields
# and offsets, impossible dates, and the forms `datetime.fromisoformat`
# accepts on some Python versions only.
STAMPS = [
    "2024-01-01T00:00:00.5+00:00", "2024-01-01T0000", "20240101T000000",
    "2024-01-01T00:00:00,5+00:00", "2024-01-01 00:00:00+0000", "2024-01-01T00:00:00x+00:00",
    "2024-01-01T00:00:001+00:00", "2024-01-01T00:001Z", "2024-02-30T00:00:00+00:00",
    "2024-01-01T24:00:00+00:00", "2024-01-01T00:00:00+24:00", "2024-01-01T00:00:00-00:00",
    "2024-01-01T00:00:00+00:60", "0000-01-01T00:00:00+00:00", "9999-12-31T23:59:59+00:00", "",
]
# Flight-number patterns: one that matches anything, and ones `re` refuses,
# among them a repetition count past its limit and nesting past the
# parser's recursion.
PATTERNS = ["a{4294967296}", "(" * 200 + "a" + ")" * 200, "(", "[a-", "a**", "\\", "(?<=a+)b", "."]


def corpus_text(rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def changed_byte(draw, data: bytes) -> bytes:
    """`data` with one byte replaced, inserted or deleted."""
    at = draw(st.integers(0, len(data) - 1))
    byte = bytes([draw(st.integers(0, 255))])
    return draw(st.sampled_from([
        data[:at] + byte + data[at + 1 :], data[:at] + byte + data[at:], data[:at] + data[at + 1 :],
    ]))


@st.composite
def mutated_corpus(draw) -> bytes:
    """The valid corpus with one byte, field, quote or stamp changed."""
    rows = [list(row) for row in CORPUS_ROWS]
    action = draw(st.sampled_from(["byte", "field", "quote", "stamp"]))
    if action == "byte":
        return changed_byte(draw, corpus_text(rows).encode())
    if action == "quote":
        text = corpus_text(rows)
        at = draw(st.integers(0, len(text)))
        return (text[:at] + '"' + text[at:]).encode()
    row = draw(st.integers(0 if action == "field" else 1, len(rows) - 1))
    if action == "stamp":
        rows[row][0] = draw(st.sampled_from(STAMPS) | st.text("0123456789-+:.,TZ xé", max_size=30))
    else:
        value = draw(st.text(max_size=20) | st.sampled_from(["", " ", "\ufeff", "a" * 131_073]))
        change = draw(st.sampled_from(["replace", "append", "drop"]))
        if change == "replace":
            rows[row][draw(st.integers(0, 2))] = value
        elif change == "append":
            rows[row].append(value)
        else:
            rows[row].pop()
    return corpus_text(rows).encode()


@st.composite
def mutated_rules(draw) -> bytes:
    """The default rules with one byte, entry or pattern changed."""
    rules = json.loads(json.dumps(RULES))
    action = draw(st.sampled_from(["byte", "field", "regex"]))
    if action == "byte":
        return changed_byte(draw, json.dumps(rules).encode())
    if action == "regex":
        rules["flight_number_pattern"] = draw(st.sampled_from(PATTERNS))
    else:
        labels = rules["labels"]
        label = draw(st.sampled_from(sorted(labels)))
        change = draw(st.sampled_from(["pattern", "list", "keyword", "unknown", "mentioned", "drop"]))
        if change == "pattern":
            rules["flight_number_pattern"] = draw(junk)
        elif change == "list":
            labels[label] = draw(junk)
        elif change == "keyword":
            labels[label][draw(st.integers(0, len(labels[label]) - 1))] = draw(junk | st.text(max_size=8))
        elif change in ("unknown", "mentioned"):
            labels["Bogus" if change == "unknown" else "Mentioned"] = draw(junk)
        elif draw(st.booleans()):
            del labels[label]
        else:
            del rules[draw(st.sampled_from(sorted(rules)))]
    return json.dumps(rules).encode()


def check_classify_contract(corpus: bytes, rules: bytes, calibrate: bool):
    """The contract for one classify call on these files: a failure leaves
    only the inputs in the run's directory, no output and no `.tmp-` file."""
    inputs = ["corpus.csv", "rules.json"]
    outputs = ["labels.counts.json", "labels.csv", "labels.params.json"]
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in zip(inputs, (corpus, rules)):
            with open(os.path.join(tmp, name), "wb") as handle:
                handle.write(data)
        argv = ["classify", os.path.join(tmp, inputs[0]), "--rules", os.path.join(tmp, inputs[1]),
                "--out", os.path.join(tmp, "labels.csv")]
        if calibrate:
            argv.append("--calibrate")
            outputs.append("labels.steady.csv")
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        left = sorted(os.listdir(tmp))
    stderr = stderr.getvalue()
    assert code in (0, 2, 3), (code, stderr)
    assert not caught, [str(w.message) for w in caught]
    assert stdout.getvalue() == "" and "Traceback" not in stderr
    if code == 0:
        assert stderr == "" and left == sorted(inputs + outputs)
    else:
        lines = stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error["), stderr
        assert left == inputs, left
    return code, stderr


@pytest.mark.parametrize("calibrate", [False, True])
def test_valid_corpus_and_rules_succeed(calibrate):
    files = corpus_text(CORPUS_ROWS).encode(), json.dumps(RULES).encode()
    assert check_classify_contract(*files, calibrate) == (0, "")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_classify_contract_holds_for_any_single_change(data):
    # A corpus that cannot be read exits 3, never 2: the flags and the rules
    # are valid.
    corpus, rules = corpus_text(CORPUS_ROWS).encode(), json.dumps(RULES).encode()
    if data.draw(st.booleans(), label="change the corpus"):
        corpus, codes = data.draw(mutated_corpus()), (0, 3)
    else:
        rules, codes = data.draw(mutated_rules()), (0, 2, 3)
    code, stderr = check_classify_contract(corpus, rules, data.draw(st.booleans(), label="calibrate"))
    assert code in codes, (code, stderr)
