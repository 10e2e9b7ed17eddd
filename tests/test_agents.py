import json
import math
from dataclasses import asdict
from decimal import Decimal, localcontext

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathfinder_ops import (
    AgentProfile,
    ControllerCandidate,
    ControllerContext,
    candidates_from_json,
    controller_payoff,
    p_accept,
    rank_candidates,
    utility_accept,
)

# High-precision reference: 1/(1 + e^-2) to 20 digits is
# 0.88079707797788244406 (checked with mpmath at 30 digits).
EXPIT_2 = 0.8807970779778823


def profile(reward=0.0, cost=0.0, failure=0.0, beta=1.0, p_success=1.0, pid="a"):
    return AgentProfile(
        id=pid,
        reward=reward,
        participation_cost=cost,
        failure_cost=failure,
        beta=beta,
        p_success_i=p_success,
    )


def profile_with_utility(u, beta=1.0, pid="a"):
    """reward = u, no costs when u >= 0; otherwise failure cost carries -u."""
    if u >= 0:
        return profile(reward=u, beta=beta, pid=pid)
    return profile(failure=-u, p_success=0.0, beta=beta, pid=pid)


class TestProfileValidation:
    @pytest.mark.parametrize("field", ["reward", "participation_cost", "failure_cost"])
    def test_rejects_negative_costs_and_reward(self, field):
        kwargs = {
            "id": "x",
            "reward": 1.0,
            "participation_cost": 0.0,
            "failure_cost": 0.0,
            "beta": 1.0,
            "p_success_i": 0.5,
            field: -0.1,
        }
        with pytest.raises(ValueError):
            AgentProfile(**kwargs)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            profile(beta=0.0)
        with pytest.raises(ValueError):
            profile(beta=-1.0)

    def test_rejects_bad_success_probability(self):
        with pytest.raises(ValueError):
            profile(p_success=1.5)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            ControllerCandidate(profile=profile(), epsilon=1.2)

    def test_rejects_negative_ideal_delay(self):
        with pytest.raises(ValueError):
            ControllerContext(delta_d_ideal=-1.0)


class TestUtility:
    def test_all_zero_profile(self):
        assert utility_accept(profile()) == 0.0

    def test_failure_term_vanishes_at_certain_success(self):
        assert utility_accept(profile(reward=5, cost=1, failure=4, p_success=1.0)) == 4.0

    def test_knife_edge_zero(self):
        assert utility_accept(profile(reward=2, cost=1, failure=2, p_success=0.5)) == 0.0


class TestAcceptanceProbability:
    def test_midpoint_at_zero_utility(self):
        for beta in (0.1, 1.0, 17.0):
            assert p_accept(profile(beta=beta)) == pytest.approx(0.5, abs=1e-15)

    def test_unit_beta_at_utility_two(self):
        assert p_accept(profile(reward=2.0)) == pytest.approx(EXPIT_2, abs=1e-12)

    def test_saturates_for_sharp_beta(self):
        assert p_accept(profile(reward=0.5, beta=50.0)) >= 0.999

    def test_reject_mirrors_accept(self):
        # Declining at utility U is accepting at -U: 1 - expit(-2) = expit(2).
        assert 1.0 - p_accept(profile_with_utility(-2.0)) == pytest.approx(EXPIT_2, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(u=st.floats(-30, 30), beta=st.floats(0.01, 20))
    def test_complement_identity(self, u, beta):
        accept = p_accept(profile_with_utility(u, beta=beta))
        assert abs(accept + p_accept(profile_with_utility(-u, beta=beta)) - 1.0) <= 1e-15

    @settings(max_examples=200, deadline=None)
    @given(u=st.floats(-30, 30), beta=st.floats(0.01, 20))
    def test_reject_closed_form(self, u, beta):
        # The rejection probability 1 / (1 + e^(beta U)) is p_accept at -U.
        reject = p_accept(profile_with_utility(-u, beta=beta))
        assert abs(reject - 1.0 / (1.0 + math.exp(beta * u))) <= 1e-15

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(-708, 40), beta=st.sampled_from([0.25, 1.0, 3.0]))
    @example(x=-708.0, beta=1.0)
    @example(x=-37.0, beta=1.0)
    @example(x=37.0, beta=1.0)
    @example(x=40.0, beta=1.0)
    def test_accept_is_within_4_ulps_of_the_logistic_in_both_tails(self, x, beta):
        # Relative error, so that neither tail can hide behind an absolute
        # bound: on [-708, 40] the logistic is a normal float. The reference
        # is the logistic of the product the library forms, to 60 digits.
        prof = profile_with_utility(x / beta, beta=beta)
        with localcontext() as ctx:
            ctx.prec = 60
            exact = 1 / (1 + (-Decimal(beta * utility_accept(prof))).exp())
            error = abs(Decimal(p_accept(prof)) - exact) / Decimal(math.ulp(float(exact)))
        assert error <= 4, (x, beta, float(error))

    def test_strictly_increasing_in_utility(self):
        values = [p_accept(profile_with_utility(u)) for u in [-3, -1, -0.2, 0, 0.4, 2, 5]]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_increasing_in_beta_for_positive_utility(self):
        values = [p_accept(profile(reward=0.7, beta=b)) for b in [0.1, 0.5, 1, 2, 8]]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_derivative_matches_logistic_slope(self):
        # d p_accept / dU = beta * p * (1 - p), checked by central differences.
        h = 1e-5
        for u, beta in [(0.3, 1.0), (1.5, 2.0), (-0.8, 0.7)]:
            up = p_accept(profile_with_utility(u + h, beta=beta))
            down = p_accept(profile_with_utility(u - h, beta=beta))
            fd = (up - down) / (2 * h)
            p = p_accept(profile_with_utility(u, beta=beta))
            assert fd == pytest.approx(beta * p * (1 - p), abs=1e-6)


class TestControllerPayoff:
    def test_zero_effectiveness_zeroes_payoff(self):
        cand = ControllerCandidate(profile=profile(reward=9.0), epsilon=0.0)
        assert controller_payoff(cand, ControllerContext(100.0)) == 0.0

    def test_midpoint_payoff(self):
        cand = ControllerCandidate(profile=profile(), epsilon=0.5)
        assert controller_payoff(cand, ControllerContext(100.0)) == pytest.approx(25.0, abs=1e-12)

    def test_reduces_to_acceptance_probability(self):
        cand = ControllerCandidate(profile=profile(reward=2.0), epsilon=1.0)
        assert controller_payoff(cand, ControllerContext(1.0)) == pytest.approx(
            EXPIT_2, abs=1e-12
        )


class TestRanking:
    def test_single_candidate(self):
        cand = ControllerCandidate(profile=profile(pid="only"), epsilon=0.5)
        assert rank_candidates([cand], ControllerContext(10.0)) == ["only"]

    def test_orders_by_payoff_descending(self):
        strong = ControllerCandidate(profile=profile(pid="strong"), epsilon=0.5)
        weak = ControllerCandidate(profile=profile(pid="weak"), epsilon=0.0)
        order = rank_candidates([weak, strong], ControllerContext(100.0))
        assert order == ["strong", "weak"]

    def test_tie_breaks_by_ascending_id(self):
        a = ControllerCandidate(profile=profile(pid="b"), epsilon=0.5)
        b = ControllerCandidate(profile=profile(pid="a"), epsilon=0.5)
        assert rank_candidates([a, b], ControllerContext(10.0)) == ["a", "b"]

    def test_output_is_permutation(self):
        cands = [
            ControllerCandidate(profile=profile(reward=float(i % 3), pid=f"c{i}"), epsilon=0.1 * i)
            for i in range(1, 8)
        ]
        order = rank_candidates(cands, ControllerContext(50.0))
        assert sorted(order) == sorted(c.profile.id for c in cands)

    def test_scaling_ideal_delay_preserves_order(self):
        cands = [
            ControllerCandidate(profile=profile(reward=r, pid=f"c{i}"), epsilon=e)
            for i, (r, e) in enumerate([(0.0, 0.9), (2.0, 0.4), (1.0, 0.6), (3.0, 0.2)])
        ]
        base = rank_candidates(cands, ControllerContext(1.0))
        for scale in (0.001, 7.0, 1e6):
            assert rank_candidates(cands, ControllerContext(scale)) == base

    def test_empty_set_raises(self):
        with pytest.raises(ValueError, match="empty candidate list"):
            rank_candidates([], ControllerContext(1.0))

    def test_duplicate_id_raises(self):
        cand = ControllerCandidate(profile=profile(pid="dup"), epsilon=0.5)
        with pytest.raises(ValueError, match="appears more than once"):
            rank_candidates([cand, cand], ControllerContext(1.0))


class TestJsonLoading:
    GOOD_PROFILE = {
        "id": "UAL1",
        "reward": 2.0,
        "participation_cost": 0.5,
        "failure_cost": 1.0,
        "beta": 1.0,
        "p_success_i": 0.8,
    }

    def candidates(self, *profiles):
        return candidates_from_json([{"profile": p, "epsilon": 0.5} for p in profiles])

    def test_profiles_round_trip(self):
        (cand,) = self.candidates(self.GOOD_PROFILE)
        doc = json.loads(json.dumps([{"profile": asdict(cand.profile), "epsilon": cand.epsilon}]))
        (again,) = candidates_from_json(doc)
        assert again == cand and again.profile.id == "UAL1" and again.profile.beta == 1.0

    def test_missing_field_names_record_index(self):
        bad = {k: v for k, v in self.GOOD_PROFILE.items() if k != "beta"}
        with pytest.raises(ValueError, match="record 1: profile: missing key 'beta'"):
            self.candidates(self.GOOD_PROFILE, bad)

    def test_invalid_value_names_record_index(self):
        bad = dict(self.GOOD_PROFILE, beta=-1.0)
        with pytest.raises(ValueError, match="record 0: beta must"):
            self.candidates(bad)

    def test_unknown_field_rejected(self):
        bad = dict(self.GOOD_PROFILE, extra=1)
        with pytest.raises(ValueError, match="record 0: profile: unknown key 'extra'"):
            self.candidates(bad)

    def test_candidates_nested_shape(self):
        doc = json.loads(json.dumps([{"profile": self.GOOD_PROFILE, "epsilon": 0.25}]))
        (cand,) = candidates_from_json(doc)
        assert cand.epsilon == 0.25 and cand.profile.id == "UAL1" and cand.profile.beta == 1.0

    def test_candidate_errors_name_record(self):
        with pytest.raises(ValueError, match="record 0"):
            candidates_from_json([{"profile": self.GOOD_PROFILE}])
        with pytest.raises(ValueError, match="record 0"):
            candidates_from_json([{"profile": self.GOOD_PROFILE, "epsilon": 3.0}])
