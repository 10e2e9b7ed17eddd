import itertools
import math
import tracemalloc

import numpy as np
import pytest

import pathfinder_ops.simulate as simulate_module
from pathfinder_ops import (
    AgentProfile,
    ChainParams,
    ControllerCandidate,
    ControllerContext,
    MixtureBatchResult,
    SimConfig,
    WorstCaseScenario,
    group_reject_probs,
    make_rng,
    mixture_batch,
    run_selection_round,
    simulate_chain,
    steady_state,
    worst_case_prob,
)
from pathfinder_ops.chain import transition_matrices
from pathfinder_ops.simulate import _CHUNK, MAX_ROUND_DRAWS, MAX_STEPS, check_batch

from oracles import (
    binomial_sum_w,
    deterministic_walk_occupancy,
    exact_mean_offers,
    exact_offers_variance,
    expected_visit_counts,
    per_agent_rounds,
)


def no_rng(*args, **kwargs):
    """Stand-in for make_rng in tests of requests refused before any draw."""
    raise AssertionError("make_rng called for a refused request")


CTX = ControllerContext(delta_d_ideal=100.0)


def candidate(pid, utility, beta=1.0, epsilon=0.5):
    if utility >= 0:
        profile = AgentProfile(
            id=pid, reward=utility, participation_cost=0.0, failure_cost=0.0,
            beta=beta, p_success_i=1.0,
        )
    else:
        profile = AgentProfile(
            id=pid, reward=0.0, participation_cost=0.0, failure_cost=-utility,
            beta=beta, p_success_i=0.0,
        )
    return ControllerCandidate(profile=profile, epsilon=epsilon)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(seed=-1, steps=10)
        with pytest.raises(ValueError):
            SimConfig(seed=0, steps=0)
        with pytest.raises(ValueError):
            SimConfig(seed=0, steps=10, burn_in=10)
        SimConfig(seed=2**64 - 1, steps=10, burn_in=9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": True, "steps": 10},
            {"seed": 0, "steps": True},
            {"seed": 0, "steps": 10, "burn_in": False},
        ],
    )
    def test_rejects_booleans(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    def test_steps_cap(self):
        assert SimConfig(seed=0, steps=MAX_STEPS).steps == MAX_STEPS
        with pytest.raises(ValueError, match="steps"):
            SimConfig(seed=0, steps=MAX_STEPS + 1)
        with pytest.raises(ValueError, match="steps"):
            SimConfig(seed=0, steps=10**30)

    def test_make_rng_rejects_boolean_seed(self):
        with pytest.raises(ValueError):
            make_rng(True)


class TestSimulateChain:
    def test_deterministic_for_seed(self):
        params = ChainParams(0.4, 0.7, 0.6)
        cfg = SimConfig(seed=123, steps=20_000, burn_in=100)
        first = simulate_chain(params, cfg)
        second = simulate_chain(params, cfg)
        np.testing.assert_array_equal(first, second)

    def test_different_seeds_differ(self):
        params = ChainParams(0.4, 0.7, 0.6)
        a = simulate_chain(params, SimConfig(seed=1, steps=20_000))
        b = simulate_chain(params, SimConfig(seed=2, steps=20_000))
        assert not np.array_equal(a, b)

    def test_occupancy_normalized(self):
        occ = simulate_chain(ChainParams(0.3, 0.9, 0.5), SimConfig(seed=5, steps=10_000))
        assert abs(occ.sum() - 1.0) <= 1e-12
        assert np.all(occ >= 0)

    def test_closed_gate_absorbs(self):
        occ = simulate_chain(ChainParams(0.0, 0.5, 0.5), SimConfig(seed=9, steps=5_000, burn_in=10))
        np.testing.assert_array_equal(occ, [1.0, 0.0, 0.0, 0.0])

    def test_matches_analytic_distribution(self):
        occ = simulate_chain(ChainParams(0.5, 1.0, 1.0), SimConfig(seed=42, steps=10**6, burn_in=1000))
        pi = steady_state(0.5, 1.0, 1.0)
        assert np.max(np.abs(occ - pi)) <= 0.01

    def test_random_triples_against_analytic(self):
        rng = np.random.default_rng(314)
        for trial in range(5):
            g, a, s = rng.uniform(0.1, 0.9, 3)
            params = ChainParams(g, a, s)
            occ = simulate_chain(params, SimConfig(seed=1000 + trial, steps=10**6, burn_in=1000))
            pi = steady_state(g, a, s)
            assert np.max(np.abs(occ - pi)) <= 0.01


class TestHoldingTimeWalk:
    # Mean visit counts of many seeded short walks against the exact
    # expectation from matrix powers. steps = 12 and burn_in = 3 count
    # X_4, ..., X_12; an off-by-one in the first visit or in burn-in moves
    # the means by far more than 4 standard errors.
    STEPS, BURN_IN, RUNS = 12, 3, 2000

    @pytest.mark.parametrize(
        "g,a,s",
        [
            (0.3, 0.6, 0.7),  # interior
            (0.4, 0.0, 0.5),  # a = 0: Pathfinder Selection absorbs
            (1.0, 0.7, 0.4),  # g = 1, s > 0: Gate Opened absorbs
            (0.5, 0.6, 0.0),  # s = 0: Gate Opened is never entered
            (0.5, 0.6, 1.0),  # s = 1: Pathfinding always opens the gate
        ],
    )
    def test_mean_counts_match_matrix_powers(self, g, a, s):
        params = ChainParams(g, a, s)
        counted = self.STEPS - self.BURN_IN
        counts = np.array(
            [
                simulate_chain(params, SimConfig(seed=seed, steps=self.STEPS, burn_in=self.BURN_IN))
                * counted
                for seed in range(self.RUNS)
            ]
        )
        expected = expected_visit_counts(transition_matrices(g, a, s), self.STEPS, self.BURN_IN)
        se = counts.std(axis=0, ddof=1) / math.sqrt(self.RUNS)
        assert np.all(np.abs(counts.mean(axis=0) - expected) <= 4 * se + 1e-12), (
            counts.mean(axis=0),
            expected,
            se,
        )

    @pytest.mark.parametrize("g,a,s", list(itertools.product([0.0, 1.0], repeat=3)))
    @pytest.mark.parametrize("steps,burn_in", [(1, 0), (10, 0), (10, 4), (100_003, 17)])
    def test_deterministic_chains_are_exact(self, g, a, s, steps, burn_in):
        # With every probability in {0, 1} each row of P is a unit vector,
        # so any walk equals the one-step-at-a-time walk, including the
        # never-left states (leave probability 0).
        params = ChainParams(g, a, s)
        occ = simulate_chain(params, SimConfig(seed=3, steps=steps, burn_in=burn_in))
        expected = deterministic_walk_occupancy(transition_matrices(g, a, s), steps, burn_in)
        np.testing.assert_array_equal(occ, expected)


class TestSelectionRound:
    def test_eager_candidate_accepts_first(self):
        # p_accept ~ 1 - 2e-9; over 1000 fixed seeds a rejection never shows up.
        cands = [candidate("eager", utility=20.0)]
        for seed in range(1000):
            outcome = run_selection_round(cands, CTX, seed)
            assert outcome.accepted_by == "eager"
            assert outcome.offers_made == 1

    def test_univerally_rejective_pool_exhausts_offers(self):
        cands = [candidate(f"c{i}", utility=-20.0) for i in range(4)]
        for seed in range(1000):
            outcome = run_selection_round(cands, CTX, seed)
            assert outcome.accepted_by is None
            assert outcome.offers_made == 4

    def test_outcome_invariants(self):
        cands = [candidate(f"c{i}", utility=u) for i, u in enumerate([-1.0, 0.5, 2.0, -0.2])]
        for seed in range(50):
            outcome = run_selection_round(cands, CTX, seed)
            assert outcome.offers_made <= len(outcome.order_used)
            if outcome.accepted_by is not None:
                assert outcome.order_used[outcome.offers_made - 1] == outcome.accepted_by

    def test_order_follows_payoff_ranking(self):
        cands = [
            candidate("low", utility=-2.0, epsilon=1.0),
            candidate("high", utility=3.0, epsilon=1.0),
            candidate("mid", utility=0.5, epsilon=1.0),
        ]
        outcome = run_selection_round(cands, CTX, seed=7)
        assert outcome.order_used == ("high", "mid", "low")

    def test_deterministic_given_seed(self):
        cands = [candidate(f"c{i}", utility=0.1 * i - 0.3) for i in range(5)]
        a = run_selection_round(cands, CTX, seed=99)
        b = run_selection_round(cands, CTX, seed=99)
        assert a == b

    def test_empty_pool_raises(self):
        with pytest.raises(ValueError, match="without candidates"):
            run_selection_round([], CTX, seed=0)


class TestMixtureBatch:
    def test_deterministic(self):
        scn = WorstCaseScenario(n=5, u_minus=-2.0, u_plus=2.0, beta=1.0, delta=0.1)
        a = mixture_batch(scn, alpha=0.5, rounds=10_000, seed=7)
        b = mixture_batch(scn, alpha=0.5, rounds=10_000, seed=7)
        assert a == b

    @pytest.mark.parametrize("n,alpha", [(2, 0.3), (5, 0.5), (10, 0.9)])
    def test_all_reject_rate_matches_closed_form(self, n, alpha):
        scn = WorstCaseScenario(n=n, u_minus=-2.0, u_plus=2.0, beta=1.0, delta=0.1)
        rounds = 50_000
        result = mixture_batch(scn, alpha=alpha, rounds=rounds, seed=2024)
        w = worst_case_prob(scn, alpha)
        se = math.sqrt(w * (1 - w) / rounds)
        assert abs(result.all_reject_rate - w) <= 3 * se

    def test_degenerate_mixture_extremes(self):
        scn = WorstCaseScenario(n=3, u_minus=-20.0, u_plus=20.0, beta=1.0, delta=0.1)
        never = mixture_batch(scn, alpha=0.0, rounds=2_000, seed=1)
        assert never.all_reject_rate == 0.0
        assert never.mean_offers == pytest.approx(1.0, abs=1e-6)
        always = mixture_batch(scn, alpha=1.0, rounds=2_000, seed=2)
        assert always.all_reject_rate == pytest.approx(1.0, abs=1e-3)

    def test_mean_offers_bounds(self):
        scn = WorstCaseScenario(n=6, u_minus=-2.0, u_plus=2.0, beta=1.0, delta=0.1)
        result = mixture_batch(scn, alpha=0.5, rounds=5_000, seed=3)
        assert 1.0 <= result.mean_offers <= 6.0

    def test_alpha_validation(self):
        scn = WorstCaseScenario(n=3, u_minus=-2.0, u_plus=2.0, beta=1.0, delta=0.1)
        with pytest.raises(ValueError):
            mixture_batch(scn, alpha=1.2, rounds=10, seed=0)
        with pytest.raises(ValueError):
            mixture_batch(scn, alpha=0.5, rounds=0, seed=0)

    def test_rejects_boolean_rounds_and_seed(self):
        scn = WorstCaseScenario(n=3, u_minus=-2.0, u_plus=2.0, beta=1.0, delta=0.1)
        with pytest.raises(ValueError, match="rounds"):
            mixture_batch(scn, alpha=0.5, rounds=True, seed=0)
        with pytest.raises(ValueError, match="seed"):
            mixture_batch(scn, alpha=0.5, rounds=10, seed=True)

    def test_draw_cap(self):
        # Only the checks run here, so the test allocates nothing.
        scn = WorstCaseScenario(n=10, u_minus=-2.0, u_plus=2.0, beta=1.0, delta=0.1)
        assert check_batch(scn, 0.5, 10**6, 0) == 0.5
        assert check_batch(scn, 0.5, MAX_ROUND_DRAWS // 10, 0) == 0.5
        with pytest.raises(ValueError, match="rounds x n"):
            check_batch(scn, 0.5, MAX_ROUND_DRAWS // 10 + 1, 0)

    @pytest.mark.parametrize("rounds,n", [(MAX_ROUND_DRAWS + 1, 1), (10**6, 10**6), (10**40, 2)])
    def test_oversized_batch_refused_before_allocation(self, monkeypatch, rounds, n):
        monkeypatch.setattr(simulate_module, "make_rng", no_rng)
        scn = WorstCaseScenario(n=n, u_minus=-2.0, u_plus=2.0, beta=1.0, delta=0.1)
        with pytest.raises(ValueError, match="rounds x n"):
            mixture_batch(scn, alpha=0.5, rounds=rounds, seed=0)


class TestMixtureBatchLaw:
    # Three-draw rounds against independent references: the explicit
    # binomial sum for the all-reject rate, an exact enumeration for the
    # mean offers, and the per-agent walk (numpy's default generator) for
    # both, each within 4 standard errors.
    POINTS = [
        # (n, alpha, |u|)
        (1, 0.5, 0.5),
        (3, 0.3, 1.0),
        (10, 0.5, 2.0),
        (10, 0.9, 0.5),
        (25, 0.7, 1.0),
    ]
    ROUNDS = 200_000

    @staticmethod
    def scenario(n, u):
        return WorstCaseScenario(n=n, u_minus=-u, u_plus=u, beta=1.0, delta=0.1)

    @pytest.mark.parametrize("n,alpha,u", POINTS)
    def test_all_reject_rate_matches_binomial_sum(self, n, alpha, u):
        scn = self.scenario(n, u)
        result = mixture_batch(scn, alpha=alpha, rounds=self.ROUNDS, seed=n)
        w = binomial_sum_w(n, alpha, *group_reject_probs(scn))
        se = math.sqrt(w * (1.0 - w) / self.ROUNDS)
        assert abs(result.all_reject_rate - w) <= 4 * se

    @pytest.mark.parametrize("n,alpha,u", POINTS)
    def test_mean_offers_matches_exact_enumeration(self, n, alpha, u):
        scn = self.scenario(n, u)
        result = mixture_batch(scn, alpha=alpha, rounds=self.ROUNDS, seed=100 + n)
        probs = group_reject_probs(scn)
        mean = exact_mean_offers(n, alpha, *probs)
        se = math.sqrt(exact_offers_variance(n, alpha, *probs) / self.ROUNDS)
        assert abs(result.mean_offers - mean) <= 4 * se

    @pytest.mark.parametrize("n,alpha,u", POINTS)
    def test_agrees_with_per_agent_walk(self, n, alpha, u):
        scn = self.scenario(n, u)
        probs = group_reject_probs(scn)
        result = mixture_batch(scn, alpha=alpha, rounds=self.ROUNDS, seed=200 + n)
        oracle_rounds = 100_000
        all_reject, offers = per_agent_rounds(n, alpha, *probs, oracle_rounds, seed=300 + n)
        scale = math.sqrt(1.0 / self.ROUNDS + 1.0 / oracle_rounds)
        w = binomial_sum_w(n, alpha, *probs)
        assert abs(result.all_reject_rate - all_reject.mean()) <= 4 * math.sqrt(w * (1.0 - w)) * scale
        sd = math.sqrt(exact_offers_variance(n, alpha, *probs))
        assert abs(result.mean_offers - offers.mean()) <= 4 * sd * scale


class TestMixtureBatchEdges:
    @pytest.mark.parametrize("rounds", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1])
    def test_chunk_boundaries(self, rounds):
        n = 5
        scn = WorstCaseScenario(n=n, u_minus=-0.5, u_plus=0.5, beta=1.0, delta=0.1)
        a = mixture_batch(scn, alpha=0.6, rounds=rounds, seed=41)
        assert a == mixture_batch(scn, alpha=0.6, rounds=rounds, seed=41)
        assert a.rounds == rounds
        # Both statistics are whole counts over rounds.
        for stat in (a.all_reject_rate, a.mean_offers):
            assert round(stat * rounds) / rounds == stat
        assert 0.0 <= a.all_reject_rate <= 1.0
        assert 1.0 <= a.mean_offers <= n

    @pytest.mark.parametrize("n,rounds", [(1, 1000), (7, 1000), (2**20, 16)])
    def test_extreme_utilities(self, n, rounds):
        scn = WorstCaseScenario(n=n, u_minus=-50.0, u_plus=50.0, beta=1.0, delta=0.1)
        assert group_reject_probs(scn)[0] == 1.0
        with np.errstate(all="raise"):
            always = mixture_batch(scn, alpha=1.0, rounds=rounds, seed=5)
            never = mixture_batch(scn, alpha=0.0, rounds=rounds, seed=5)
            mixture_batch(scn, alpha=0.5, rounds=rounds, seed=5)
        assert always == MixtureBatchResult(rounds=rounds, all_reject_rate=1.0, mean_offers=float(n))
        assert never == MixtureBatchResult(rounds=rounds, all_reject_rate=0.0, mean_offers=1.0)

    def test_memory_is_bounded_by_the_chunk(self):
        # Per-agent arrays would peak at about 270 MiB here.
        scn = WorstCaseScenario(n=10, u_minus=-2.0, u_plus=2.0, beta=1.0, delta=0.1)
        tracemalloc.start()
        try:
            mixture_batch(scn, alpha=0.5, rounds=2**20, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
