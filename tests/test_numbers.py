"""The one rule for what a number is, at every library entry point.

Every numeric field of every constructor, and every numeric argument of the
entry points that take grids or arrays, refuses a bool, a numeric string,
None, NaN, +/-inf and an out-of-range value with ValueError (never
TypeError), and accepts Python and numpy scalars with their values unchanged.
Config files and agent JSON go through the same checks.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathfinder_ops import (
    AgentProfile,
    ChainParams,
    ControllerCandidate,
    ControllerContext,
    LabelCounts,
    NoiseKind,
    NoiseSpec,
    SimConfig,
    SocialParams,
    WorstCaseScenario,
    calibrated_steady_state,
    candidates_from_json,
    generate_corpus,
    gradient_sign_map,
    make_rng,
    mixture_batch,
    rank_candidates,
    stationary,
    sweep_steady_state,
    worst_case_prob,
)
from pathfinder_ops.chain import transition_matrices
from pathfinder_ops.cli import SCHEMA, main
import pathfinder_ops.errors as errors_module
from pathfinder_ops.errors import integer, number, number_array
from pathfinder_ops.worstcase import check_batch

SCN = dict(n=10, u_minus=-2.0, u_plus=2.0, beta=1.0, delta=0.1)
PROFILE = dict(
    id="UAL1", reward=2.0, participation_cost=0.5, failure_cost=1.0, beta=1.0, p_success_i=0.8
)
COUNTS = dict(n_assigned=3, n_requested=4, n_rejected=2, n_failed=1, n_mentioned=5)


CHAIN = dict(p_good=0.5, p_accept=0.5, p_success=0.5)
SOCIAL = dict(s=0.5, gamma=1.0, r=0.5)
SCENARIO = WorstCaseScenario(**SCN)


def stored(cls, base: dict, key: str):
    """build(value): cls(**base) with `key` set to value; the field as stored."""
    return lambda value: getattr(cls(**dict(base, **{key: value})), key)


# Scalar fields: name -> (build(value), a valid value, an out-of-range value,
# whether the field is an integer). build returns the value as stored, or
# None where nothing is stored.
FIELDS = {
    **{f"ChainParams.{k}": (stored(ChainParams, CHAIN, k), 0.25, 1.5, False) for k in CHAIN},
    "WorstCaseScenario.n": (stored(WorstCaseScenario, SCN, "n"), 7, 0, True),
    "WorstCaseScenario.u_minus": (stored(WorstCaseScenario, SCN, "u_minus"), -1.5, 0.0, False),
    "WorstCaseScenario.u_plus": (stored(WorstCaseScenario, SCN, "u_plus"), 1.5, -1.0, False),
    "WorstCaseScenario.beta": (stored(WorstCaseScenario, SCN, "beta"), 0.5, 0.0, False),
    "WorstCaseScenario.delta": (stored(WorstCaseScenario, SCN, "delta"), 0.25, 1.0, False),
    **{
        f"SocialParams.{k}": (stored(SocialParams, SOCIAL, k), 0.25, bad, False)
        for k, bad in (("s", -0.5), ("gamma", 0.0), ("r", 1.25))
    },
    **{
        f"NoiseSpec.{k}": (stored(NoiseSpec, dict(kind=NoiseKind.GAUSSIAN, theta=1.0), k), *cases)
        for k, cases in (("theta", (0.5, -0.25, False)), ("gh_nodes", (7, 371, True)))
    },
    **{
        f"AgentProfile.{k}": (stored(AgentProfile, PROFILE, k), 0.5, bad, False)
        for k, bad in (("reward", -1.0), ("participation_cost", -0.5), ("failure_cost", -2.0),
                       ("beta", 0.0), ("p_success_i", 1.5))
    },
    "ControllerCandidate.epsilon": (
        stored(ControllerCandidate, {"profile": AgentProfile(**PROFILE)}, "epsilon"),
        0.25, 1.5, False),
    "ControllerContext.delta_d_ideal": (
        stored(ControllerContext, {}, "delta_d_ideal"), 12.5, -1.0, False),
    **{f"LabelCounts.{k}": (stored(LabelCounts, COUNTS, k), 6, -1, True) for k in COUNTS},
    "SimConfig.seed": (stored(SimConfig, dict(steps=10), "seed"), 5, 2**64, True),
    "SimConfig.steps": (stored(SimConfig, dict(seed=1), "steps"), 10, 0, True),
    "SimConfig.burn_in": (stored(SimConfig, dict(seed=1, steps=10), "burn_in"), 3, 10, True),
    "make_rng.seed": (lambda v: make_rng(v) and None, 5, -1, True),
    "check_batch.alpha": (lambda v: check_batch(SCENARIO, v, 10, 1), 0.25, 1.5, False),
    "check_batch.rounds": (lambda v: check_batch(SCENARIO, 0.5, v, 1) and None, 10, 0, True),
    "check_batch.seed": (lambda v: check_batch(SCENARIO, 0.5, 10, v) and None, 5, 2**64, True),
    "generate_corpus.size": (lambda v: len(generate_corpus(v, 1)), 3, 0, True),
}

BAD_TYPES = [True, False, "2", None]
NON_FINITE = [math.nan, math.inf, -math.inf]


def valid_forms(value, is_int):
    """The value as a Python scalar and as numpy scalars of two widths."""
    if is_int:
        return [value, np.int64(value), np.uint16(value)]
    return [value, np.float64(value), np.float32(value)]


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_field_refuses_anything_but_a_number_in_range(field):
    build, good, out_of_range, is_int = FIELDS[field]
    bad_values = BAD_TYPES + NON_FINITE + [out_of_range, np.bool_(True), 10**400, -(10**400)]
    if is_int:
        bad_values += [float(good), np.float64(good)]
    for bad in bad_values:
        with pytest.raises(ValueError):
            build(bad)


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_field_accepts_python_and_numpy_scalars_unchanged(field):
    build, good, _, is_int = FIELDS[field]
    for form in valid_forms(good, is_int):
        result = build(form)
        if result is not None:
            assert result == good and type(result) is (int if is_int else float), (form, result)


def test_offer_rounds_take_numpy_scalars():
    batch = mixture_batch(SCENARIO, np.float64(0.5), np.int64(100), np.uint64(3))
    assert batch == mixture_batch(SCENARIO, 0.5, 100, 3) and type(batch.rounds) is int


# Array and grid arguments: name -> (call(values), a valid list, an
# out-of-range entry).
ARRAYS = {
    "worst_case_prob.alpha": (lambda v: worst_case_prob(SCENARIO, v), [0.0, 0.5], 1.5),
    **{
        f"stationary.{key}": (lambda v, i=i: stationary(*[v if j == i else 0.5 for j in range(3)]),
                              [0.25, 1.0], -0.5)
        for i, key in enumerate(("p_good", "p_accept", "p_success"))
    },
    "transition_matrices.p_good": (lambda v: transition_matrices(v, 0.5, 0.5), [0.25, 1.0], 2.0),
    **{
        f"sweep_steady_state.{key}": (
            lambda v, i=i: sweep_steady_state(*[v if j == i else [0.5] for j in range(3)]),
            [0.25, 1.0], 1.5)
        for i, key in enumerate(("g_grid", "a_grid", "s_grid"))
    },
    "calibrated_steady_state.g_grid": (
        lambda v: calibrated_steady_state(LabelCounts(**COUNTS), v), [0.25, 0.75], 1.5),
    "gradient_sign_map.u_abs_values": (
        lambda v: gradient_sign_map([2], v, alpha_grid=[0.5], theta_grid=[1.0]), [1.0, 2.0], 0.0),
    "gradient_sign_map.alpha_grid": (
        lambda v: gradient_sign_map([2], [1.0], alpha_grid=v, theta_grid=[1.0]), [0.0, 0.5], 1.5),
    "gradient_sign_map.theta_grid": (
        lambda v: gradient_sign_map([2], [1.0], alpha_grid=[0.5], theta_grid=v), [0.0, 1.0], -1.0),
}


@pytest.mark.parametrize("entry", sorted(ARRAYS))
def test_array_argument_refuses_a_bad_entry(entry):
    call, good, out_of_range = ARRAYS[entry]
    for bad in BAD_TYPES + NON_FINITE + [out_of_range, 10**400, np.bool_(True)]:
        for values in (bad, [good[0], bad], np.array([good[0], bad], dtype=object)):
            with pytest.raises(ValueError):
                call(values)
    for values in (np.array([good[0], out_of_range]), [good[0], [good[1]]], {good[0]}):
        with pytest.raises(ValueError):
            call(values)


@pytest.mark.parametrize("entry", sorted(ARRAYS))
def test_array_argument_accepts_numpy_forms_with_the_same_result(entry):
    call, good, _ = ARRAYS[entry]

    def plain(result):
        """The result as nested Python values."""
        if isinstance(result, np.ndarray) and result.dtype.names:
            return [plain(tuple(record)) for record in result]
        if isinstance(result, (list, tuple)):
            return [plain(r) for r in result]
        if hasattr(result, "dw_dtheta"):
            return [result.n_values, *(plain(getattr(result, name)) for name in (
                "u_abs_values", "alphas", "thetas", "fraction_negative", "dw_dtheta"))]
        return np.asarray(result).tolist()

    expected = plain(call(good))
    for form in (np.array(good), [np.float64(g) for g in good], np.array(good, dtype=np.float32),
                 tuple(good)):
        assert plain(call(form)) == expected


@pytest.mark.parametrize(
    "grids",
    [{"n_values": [True]}, {"n_values": [2.0]}, {"n_values": ["2"]}, {"n_values": [None]},
     {"beta": True}, {"beta": "1"}, {"beta": math.inf}, {"gh_nodes": True}, {"gh_nodes": 7.0}],
)
def test_gradient_map_scalars_follow_the_rule(grids):
    with pytest.raises(ValueError):
        gradient_sign_map(**{"n_values": [2], "u_abs_values": [1.0], "alpha_grid": [0.5],
                             "theta_grid": [1.0], "noise_kind": NoiseKind.GAUSSIAN, **grids})


class TestCheckers:
    def test_messages_name_the_input_and_the_rule(self):
        cases = [
            (lambda: number("x", True), "x must be a number, got True"),
            (lambda: number("x", "2"), "x must be a number, got '2'"),
            (lambda: number("x", math.inf), "x must be finite, got inf"),
            (lambda: number("p", 1.5, 0, 1), "p must lie in [0, 1], got 1.5"),
            (lambda: number("d", 1, 0, 1, lo_open=True, hi_open=True),
             "d must lie in (0, 1), got 1"),
            (lambda: number("g", math.nan, 0, lo_open=True), "g must be finite and > 0, got nan"),
            (lambda: number("u", 0.0, hi=0, hi_open=True), "u must be finite and < 0, got 0.0"),
            (lambda: integer("n", 2.0, 1), "n must be an integer, got 2.0"),
            (lambda: integer("n", np.float64(2.0), 1), "n must be an integer, got 2.0"),
            (lambda: integer("n", 0, 1), "n must be finite and >= 1, got 0"),
            (lambda: number_array("a", [0.5, True], 0, 1), "a must be a number, got True"),
            # Bad entries of two kinds: the non-float is named, even where
            # an out-of-range float comes first.
            (lambda: number_array("a", [2.0, True], 0, 1), "a must be a number, got True"),
            (lambda: number_array("a", np.array([0.5, 2.0]), 0, 1),
             "a must lie in [0, 1], got 2.0"),
        ]
        for call, message in cases:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message

    def test_ints_compare_exactly_at_the_bounds(self):
        assert integer("seed", 2**64 - 1, 0, 2**64 - 1) == 2**64 - 1
        with pytest.raises(ValueError):
            integer("seed", 2**64, 0, 2**64 - 1)
        with pytest.raises(ValueError):
            number("x", 10**309)  # beyond the float range
        assert number("x", 10**308) == 1e308

    def test_arrays_keep_their_shape(self):
        assert number_array("a", 0.5, 0, 1).shape == ()
        assert number_array("a", [[0.5], [0.25]], 0, 1).shape == (2, 1)
        assert number_array("a", [], 0, 1).shape == (0,)
        assert number_array("a", np.arange(3), 0, 2).dtype == float


def refusal(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


GOOD_FLOATS = st.lists(st.floats(0, 1), min_size=1, max_size=20)
BAD_FLOATS = st.one_of(
    st.floats(max_value=0, exclude_max=True), st.floats(min_value=1, exclude_min=True),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
BAD_NON_FLOATS = st.one_of(
    st.sampled_from([True, False, np.bool_(True), "0.5", None, 10**400, -(10**400), [0.5]]),
    st.integers().filter(lambda i: i not in (0, 1)),
    st.fractions().filter(lambda f: not 0 <= f <= 1),
)


class TestOneRangeCheck:
    """`number_array` checks a list's plain floats in its vectorised pass; every
    single bad entry is refused with the message `number` gives it."""

    @settings(max_examples=200, deadline=None)
    @given(GOOD_FLOATS, BAD_FLOATS, st.integers(0, 20))
    def test_a_bad_float_anywhere_gets_the_message_of_number(self, good, bad, at):
        values = good[:at] + [bad] + good[at:]
        expected = refusal(lambda: number("a", bad, 0, 1))
        assert refusal(lambda: number_array("a", values, 0, 1)) == expected
        assert refusal(lambda: number_array("a", np.array(values), 0, 1)) == expected

    @settings(max_examples=200, deadline=None)
    @given(GOOD_FLOATS, BAD_NON_FLOATS, st.integers(0, 20))
    def test_a_bad_non_float_anywhere_gets_the_message_of_number(self, good, bad, at):
        values = good[:at] + [bad] + good[at:]
        expected = refusal(lambda: number("a", bad, 0, 1))
        assert refusal(lambda: number_array("a", values, 0, 1)) == expected

    def test_a_list_of_floats_never_reaches_number(self, monkeypatch):
        calls = []

        def counted(name, value, *args, **kwargs):
            calls.append(value)
            return number(name, value, *args, **kwargs)

        monkeypatch.setattr(errors_module, "number", counted)
        grid = [i / 100 for i in range(101)]
        assert number_array("alpha", grid, 0, 1).tolist() == grid
        assert calls == []
        # The counter sees what does reach `number`: each non-float entry.
        number_array("alpha", [*grid, 1, Fraction(1, 2)], 0, 1)
        assert calls == [1, Fraction(1, 2)]


# --- agent JSON ---------------------------------------------------------------


@pytest.mark.parametrize("key", [k for k in PROFILE if k != "id"] + ["epsilon"])
@pytest.mark.parametrize("text", ["Infinity", "-Infinity", "NaN", '"2"', "true", "null"])
def test_candidate_json_refuses_non_numbers_naming_the_record(key, text):
    good = {"profile": PROFILE, "epsilon": 0.5}
    bad = json.loads(json.dumps(good))
    (bad if key == "epsilon" else bad["profile"])[key] = json.loads(text)
    doc = json.loads(json.dumps([good, bad]))
    with pytest.raises(ValueError, match=f"record 1: {key} must"):
        candidates_from_json(doc)


def test_infinite_reward_and_cost_no_longer_outrank_a_real_candidate():
    # Both infinite, the utility was inf - inf: p_accept and the payoff NaN,
    # and the NaN record sorted ahead of a payoff of 4.58.
    doc = json.loads(
        '[{"profile": {"id": "A", "reward": 2.0, "participation_cost": 0.5, "failure_cost": 1.0,'
        ' "beta": 1.0, "p_success_i": 0.8}, "epsilon": 0.5},'
        ' {"profile": {"id": "B", "reward": Infinity, "participation_cost": Infinity,'
        ' "failure_cost": 1.0, "beta": 1.0, "p_success_i": 0.8}, "epsilon": 0.5}]'
    )
    with pytest.raises(ValueError, match="record 1: reward must be finite"):
        candidates_from_json(doc)
    assert rank_candidates(candidates_from_json(doc[:1]), ControllerContext(12.5)) == ["A"]


# --- config keys --------------------------------------------------------------

# A valid config per command, covering every number and integer key.
CONFIGS = {
    "worst": {
        "worst_case": dict(SCN, alpha_grid=[0.0, 0.5]),
        "social": {"s": 0.5, "gamma": 1.0, "r": 0.25},
        "noise": {"kind": "gaussian", "theta": 0.5, "gh_nodes": 7},
    },
    "gradmap": {
        "gradmap": {"n_values": [2], "u_abs_values": [1.0], "alpha_grid": [0.5],
                    "theta_grid": [1.0], "beta": 1.0},
    },
    "simulate": {
        "chain": {"p_good": 0.5, "p_accept": 0.8, "p_success": 0.9},
        "worst_case": dict(SCN),
        "sim": {"seed": 3, "steps": 100, "burn_in": 10, "rounds": 10, "alpha": 0.5},
    },
}
CONFIG_KEYS = [
    (command, section, key)
    for command, doc in CONFIGS.items()
    for section, body in doc.items()
    for key in body
    if key in SCHEMA[section] and key != "kind"
]


def test_every_numeric_config_key_is_covered():
    numeric = {(s, k) for s, keys in SCHEMA.items() for k in keys if k != "kind"}
    assert numeric == {(s, k) for _, s, k in CONFIG_KEYS}


@pytest.mark.parametrize("command,section,key", CONFIG_KEYS)
@pytest.mark.parametrize("value", [True, "2", None, math.nan, math.inf, -math.inf])
def test_config_key_refuses_a_non_number(tmp_path, capsys, command, section, key, value):
    doc = json.loads(json.dumps(CONFIGS[command]))
    doc[section][key] = [value] if isinstance(doc[section][key], list) else value
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error[config_invalid]: {section}.{key} must be ")
    assert not out.exists()
