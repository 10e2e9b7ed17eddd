"""Property test of the CLI contract.

Each case takes a small valid config for one subcommand, changes one thing
(a value, a missing or unknown key, a whole section) and calls main(). The
contract holds whatever the config: the exit code is 0, 2 or 3, a failure
prints exactly one `error[...]` line and leaves nothing at --out, nothing
raises, and nothing warns. Values above every size cap stay in the
strategies; validation must refuse them.
"""

import contextlib
import io
import json
import math
import os
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
