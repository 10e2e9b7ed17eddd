import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

import pathfinder_ops.chain as chain_module
import pathfinder_ops.simulate as simulate_module
from pathfinder_ops import (
    AgentProfile,
    ChainParams,
    ControllerCandidate,
    ControllerContext,
    MixtureBatchResult,
    SimConfig,
    WorstCaseScenario,
    expected_offers,
    group_reject_probs,
    make_rng,
    mixture_batch,
    run_selection_round,
    simulate_chain,
    steady_state,
    worst_case_prob,
)
from pathfinder_ops.chain import (
    _CHUNK,
    _GUESSES,
    _UNDRAWN,
    MAX_STEPS,
    _failures,
    _odds,
    _split,
    _split_failures,
    transition_matrices,
)
from pathfinder_ops.worstcase import _CHUNK as ROUND_CHUNK
from pathfinder_ops.worstcase import MAX_ROUND_DRAWS, _binomial_pmf, check_batch

from oracles import (
    binomial_sum_w,
    deterministic_occupancy,
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

    @pytest.mark.parametrize("seed", [2**63, 2**63 + 1, 2**64 - 1025, 2**64 - 1])
    @pytest.mark.parametrize("stream", [0, 3])
    def test_make_rng_keys_philox_with_the_seed_exactly(self, seed, stream):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rng = make_rng(seed, stream)
        assert rng.bit_generator.state["state"]["key"].tolist() == [seed, stream]

    def test_make_rng_seeds_at_the_top_give_their_own_streams(self):
        draws = [make_rng(seed).integers(2**63, size=4).tolist() for seed in (0, 2**64 - 2, 2**64 - 1)]
        assert len({tuple(d) for d in draws}) == 3

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**32 - 1, 2**53 + 1, 2**63 - 1])
    def test_make_rng_state_below_2_63_is_the_list_keyed_one(self, seed):
        # Below 2**63 a list key passes through int64, not float64, exactly.
        for stream in (0, 1, 2, 3):
            expected = np.random.Philox(key=[seed, stream]).state
            np.testing.assert_equal(make_rng(seed, stream).bit_generator.state, expected)


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

    def test_tiny_leave_probability_is_capped_without_a_warning(self):
        # (1 - p) / p is finite but above 1e307, so a block's Poisson rate,
        # a gamma variate times it, overflows to inf: the stay outlasts the
        # walk.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            occ = simulate_chain(ChainParams(3e-308, 0.5, 0.5), SimConfig(seed=1, steps=10_000))
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


class TestChainBits:
    # Occupancies computed by 0.21.0, which draws each block of excursions
    # as its totals and splits only the blocks at the two ends of the
    # counted steps. The two deterministic walks take no draw that matters,
    # so their pins are those of 0.19.2, which clipped every visit.
    PINS = [
        # (g, a, s, steps, burn_in, seed, occupancy as float.hex)
        # The chain-grid point: blocks between two split end blocks.
        (0.5, 0.81, 0.87, 2_000_000, 1_000, 1,
         ("0x1.56ae2e71fb288p-2", "0x1.a719565390bbep-3", "0x1.567b6e624f65dp-3", "0x1.2a876f3314c6bp-2")),
        # Burn-in ends inside the second block (about 98,000 steps a block).
        (0.5, 0.81, 0.87, 400_000, 150_000, 2,
         ("0x1.55ae1cde5d181p-2", "0x1.a57646ae3a3a9p-3", "0x1.5573647baa9b5p-3", "0x1.2cdd0d8cb07d1p-2")),
        # A walk of one block, split at both ends.
        (0.3, 0.6, 0.7, 20_000, 500, 3,
         ("0x1.e629e7bd34253p-2", "0x1.ea0cb54635ab1p-3", "0x1.238d1a194fa97p-3", "0x1.2612612612612p-3")),
        # Scalar stays: every holding time is 1, or Gate Opened is never entered.
        (1.0, 1.0, 0.0, 2_000_000, 1_000, 4,
         ("0x1.55554a2496e4fp-2", "0x1.55554a2496e4fp-2", "0x1.55556bb6d2362p-2", "0x0.0p+0")),
        # Pathfinder Selection absorbs: its stay outlasts the walk.
        (1.0, 0.0, 0.0, 2_000_000, 1_000, 5,
         ("0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0")),
    ]

    @pytest.mark.parametrize("g,a,s,steps,burn_in,seed,expected", PINS)
    def test_occupancy_bits_are_pinned(self, g, a, s, steps, burn_in, seed, expected):
        occ = simulate_chain(ChainParams(g, a, s), SimConfig(seed=seed, steps=steps, burn_in=burn_in))
        assert tuple(float(x).hex() for x in occ) == expected


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
    @pytest.mark.parametrize(
        "steps,burn_in", [(1, 0), (10, 0), (10, 4), (100_003, 17), (98_303, 0), (200_000, 60_000)]
    )
    def test_deterministic_chains_are_exact(self, g, a, s, steps, burn_in):
        # With every probability in {0, 1} each row of P is a unit vector,
        # so any walk equals the one-step-at-a-time walk, including the
        # never-left states (leave probability 0). At 98,303 steps the
        # 3-cycle's second block ends exactly at the last counted step;
        # 200,000 steps with burn-in 60,000 count whole blocks in between.
        params = ChainParams(g, a, s)
        occ = simulate_chain(params, SimConfig(seed=3, steps=steps, burn_in=burn_in))
        expected = deterministic_walk_occupancy(transition_matrices(g, a, s), steps, burn_in)
        np.testing.assert_array_equal(occ, expected)


    @pytest.mark.parametrize("g,a,s", list(itertools.product([0.0, 1.0], repeat=3)))
    @pytest.mark.parametrize("burn_in", [0, 123_456_789])
    def test_deterministic_chains_are_exact_at_max_steps(self, g, a, s, burn_in):
        # The 3-cycle walks 20,345 blocks; the others end in their first,
        # inside a never-left state.
        occ = simulate_chain(ChainParams(g, a, s), SimConfig(seed=3, steps=MAX_STEPS, burn_in=burn_in))
        expected = deterministic_occupancy(transition_matrices(g, a, s), MAX_STEPS, burn_in)
        np.testing.assert_array_equal(occ, expected)

    @pytest.mark.parametrize(
        "g,a,s",
        [
            (0.3, 0.6, 0.7),  # interior
            (0.5, 1.0, 1.0),  # a = 1 and s = 1: no selection failures, every gate opens
            (0.8, 0.3, 0.0),  # s = 0: Gate Opened is never entered
        ],
    )
    @pytest.mark.parametrize("guesses", [0, _GUESSES])
    def test_mean_counts_with_both_ends_deep_inside_blocks(self, monkeypatch, g, a, s, guesses):
        # Blocks of 64 excursions; the walk spans about 3.5 blocks, so burn-in
        # ends inside the first block and the last counted step inside the
        # fourth. Without guesses each end takes 6 halvings to reach its
        # excursion; with them, fewer.
        monkeypatch.setattr(chain_module, "_CHUNK", 64)
        monkeypatch.setattr(chain_module, "_GUESSES", guesses)
        splits = []
        split = chain_module._split

        def counted_split(*args):
            splits[-1] += 1
            return split(*args)

        monkeypatch.setattr(chain_module, "_split", counted_split)
        excursion = 1 / g + 1 / a + 1 + s / (1 - g)
        steps, burn_in, runs = round(3.5 * 64 * excursion), 200, 2000
        counted = steps - burn_in
        counts = []
        for seed in range(runs):
            splits.append(0)
            occ = simulate_chain(ChainParams(g, a, s), SimConfig(seed=seed, steps=steps, burn_in=burn_in))
            counts.append(occ * counted)
        counts = np.array(counts)
        if not guesses:
            # Fewer only where an end falls on the boundary between two parts.
            assert np.median(splits) == 12
        expected = expected_visit_counts(transition_matrices(g, a, s), steps, burn_in)
        se = counts.std(axis=0, ddof=1) / math.sqrt(runs)
        assert np.all(np.abs(counts.mean(axis=0) - expected) <= 4 * se + 1e-9), (
            counts.mean(axis=0),
            expected,
            se,
        )


    def test_splits_per_end_are_bounded_for_unequal_excursions(self, monkeypatch):
        # Most excursions take 3 steps, one in 1,000 about 10**6 in Gate
        # Opened, so a block's length says little about where an end falls
        # and guessed splits can peel one excursion at a time (hundreds of
        # splits a walk). After _GUESSES of them the splits halve.
        splits = [0]
        split = chain_module._split

        def counted_split(*args):
            splits[0] += 1
            return split(*args)

        monkeypatch.setattr(chain_module, "_split", counted_split)
        params = ChainParams(1 - 1e-6, 1.0, 0.001)
        for seed in range(20):
            splits[0] = 0
            simulate_chain(params, SimConfig(seed=seed, steps=10**6, burn_in=5000))
            assert splits[0] <= 2 * (_GUESSES + math.log2(_CHUNK))


class TestTinyLeaveProbabilities:
    # A leave probability of 5e-324 makes its odds overflow to inf; up to
    # 1e-17 the Poisson rate of a block's failures exceeds numpy's range.
    # Either way the stay outlasts the walk, with no warning or error.
    @pytest.mark.parametrize("p", [5e-324, 3e-308, 1e-300, 1e-17])
    @pytest.mark.parametrize("key", ["p_good", "p_accept"])
    @pytest.mark.parametrize("steps", [1, 1000, MAX_STEPS])
    def test_tiny_probability_is_normalized_without_a_warning(self, p, key, steps):
        params = ChainParams(**dict({"p_good": 0.5, "p_accept": 0.5, "p_success": 0.5}, **{key: p}))
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            occ = simulate_chain(params, SimConfig(seed=7, steps=steps))
        assert abs(occ.sum() - 1.0) <= 1e-12 and np.all(occ >= 0)
        if key == "p_good" and p <= 1e-300:
            # The first stay in Gate Closed outlasts every walk.
            np.testing.assert_array_equal(occ, [1.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("s", [0.5, 1.0])
    @pytest.mark.parametrize("steps", [1, 1000, MAX_STEPS])
    def test_gate_opened_left_with_probability_1e_16(self, s, steps):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            occ = simulate_chain(ChainParams(1 - 1e-16, 0.5, s), SimConfig(seed=7, steps=steps))
        assert abs(occ.sum() - 1.0) <= 1e-12 and np.all(occ >= 0)


def chi_square_p(observed, pmf):
    """p-value of a chi-square test of observed counts of 0, 1, ... against
    a pmf on the same values, pooling the values expected fewer than 5
    times into their neighbours."""
    expected = np.asarray(pmf) * np.sum(observed)
    obs_bins, exp_bins, obs_run, exp_run = [], [], 0.0, 0.0
    for o, e in zip(observed, expected):
        obs_run, exp_run = obs_run + o, exp_run + e
        if exp_run >= 5:
            obs_bins.append(obs_run)
            exp_bins.append(exp_run)
            obs_run = exp_run = 0.0
    obs_bins[-1] += obs_run
    exp_bins[-1] += exp_run
    return stats.chisquare(obs_bins, exp_bins).pvalue


class TestBlockSplits:
    # A block of k excursions is drawn as its totals and split into its
    # first k1 excursions and the rest; each part must have the law of a
    # block of its size drawn directly.
    DRAWS = 10_000

    @pytest.mark.parametrize("g,a,s", [(0.3, 0.6, 0.7), (0.05, 0.9, 0.2)])
    @pytest.mark.parametrize("k,k1", [(100, 37), (100, 1), (100, 99), (2, 1)])
    def test_parts_have_the_block_marginals(self, g, a, s, k, k1):
        rng = make_rng(11)
        odds = (_odds(g, 1 - g), _odds(a, 1 - a), _odds(1 - g, g))
        parts = []
        for _ in range(self.DRAWS):
            m = int(rng.binomial(k, s))
            failures = tuple(_failures(rng, v, r) for v, r in zip((k, k, m), odds))
            assert all(drawn for _, drawn in failures)
            first, second = _split(rng, (k, m, failures), k1)
            assert first[0] + second[0] == k and first[1] + second[1] == m
            for part_failures, total in zip(zip(first[2], second[2]), failures):
                assert part_failures[0][0] + part_failures[1][0] == total[0]
            parts.append([[part[1], *(f for f, _ in part[2])] for part in (first, second)])
        parts = np.array(parts)  # draw, part, (m, F0, F1, F3)
        for size, values in zip((k1, k - k1), parts.transpose(1, 2, 0)):
            # Binomial(size, s) gate openings; NB(size, p) failures for the
            # looping states, F3 summed over the openings.
            r0, r1, r3 = odds
            opened_mean, opened_var = size * s, size * s * (1 - s)
            moments = [
                (opened_mean, opened_var),
                (size * r0, size * r0 * (1 + r0)),
                (size * r1, size * r1 * (1 + r1)),
                (opened_mean * r3, opened_mean * r3 * (1 + r3) + opened_var * r3**2),
            ]
            for x, (mean, var) in zip(values, moments):
                centred = x - x.mean()
                var_se = math.sqrt(max(np.mean(centred**4) - x.var() ** 2, 0.0) / x.size)
                assert abs(x.mean() - mean) <= 4 * math.sqrt(var / x.size) + 1e-12
                assert abs(x.var() - var) <= 4 * var_se + 1e-12

    @pytest.mark.parametrize("total,first,second", [(40, 3, 5), (25, 1, 99), (60, 50, 1)])
    def test_failure_share_is_beta_binomial(self, total, first, second):
        rng = make_rng(12)
        shares = np.array(
            [_split_failures(rng, (float(total), True), first, second)[0][0] for _ in range(self.DRAWS)]
        )
        observed = np.bincount(shares.astype(int), minlength=total + 1)
        pmf = stats.betabinom(total, first, second).pmf(np.arange(total + 1))
        assert chi_square_p(observed, pmf) > 1e-3

    @pytest.mark.parametrize("k,k1,m", [(30, 12, 9), (30, 1, 9), (30, 29, 9), (200, 150, 120)])
    def test_gate_openings_split_hypergeometrically(self, k, k1, m):
        rng = make_rng(13)
        no_failures = ((0.0, True),) * 3
        m1 = np.array([_split(rng, (k, m, no_failures), k1)[0][1] for _ in range(self.DRAWS)])
        observed = np.bincount(m1, minlength=m + 1)
        pmf = stats.hypergeom(k, k1, m).pmf(np.arange(m + 1))
        assert chi_square_p(observed, pmf) > 1e-3

    def test_undrawn_rate_splits_by_beta(self):
        # A rate far beyond _UNDRAWN: each share is a Poisson draw (or the
        # rate itself) of the rate times Beta(first, second), so the share
        # over the rate is that Beta up to a relative 1e-7.
        rng = make_rng(14)
        rate = 2.0**62
        firsts, seconds = zip(*(_split_failures(rng, (rate, False), 1, 999) for _ in range(2000)))
        assert any(drawn for _, drawn in firsts) and not any(drawn for _, drawn in seconds)
        fractions = np.array([share for share, _ in firsts]) / rate
        assert stats.kstest(fractions, stats.beta(1, 999).cdf).pvalue > 1e-3

    def test_never_left_state_stays_infinite(self):
        rng = make_rng(15)
        assert _split_failures(rng, (math.inf, False), 3, 4) == ((math.inf, False), (math.inf, False))
        assert _split_failures(rng, (math.inf, False), 0, 4) == ((0.0, True), (math.inf, False))
        assert _failures(rng, 5, math.inf) == (math.inf, False)
        assert _failures(rng, 0, math.inf) == (0.0, True)
        assert _failures(rng, 5, 1e300)[0] >= _UNDRAWN


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

    @pytest.mark.parametrize("n,alpha", [(1, 0.3), (2, 0.5), (10, 0.0), (10, 1.0), (37, 0.77), (2**20, 0.5)])
    def test_carries_its_closed_forms_bit_for_bit(self, n, alpha):
        scn = WorstCaseScenario(n=n, u_minus=-1.3, u_plus=1.1, beta=0.7, delta=0.1)
        batch = mixture_batch(scn, alpha, 10, 1)
        assert batch.analytic_all_reject == worst_case_prob(scn, alpha)
        assert batch.analytic_mean_offers == expected_offers(scn, alpha)

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
    # Offer rounds against independent references: the explicit
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
        (4, 1.0, 1.0),  # no receptive agent: every round draws g_rej
        (20, 0.2, 0.1),  # receptive agents refuse often
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
    def test_offers_std_error_matches_exact_variance(self, n, alpha, u):
        # The sample variance N * se**2 lies within 4 of its standard
        # deviations of the exact variance. That deviation is at most
        # sqrt(mu4 / N), and an offer count lies within d = max(mean - 1,
        # n - mean) of the mean, so mu4 <= d**2 * variance.
        scn = self.scenario(n, u)
        result = mixture_batch(scn, alpha=alpha, rounds=self.ROUNDS, seed=100 + n)
        probs = group_reject_probs(scn)
        mean = exact_mean_offers(n, alpha, *probs)
        variance = exact_offers_variance(n, alpha, *probs)
        d = max(mean - 1.0, n - mean)
        sample_variance = self.ROUNDS * result.mean_offers_std_error**2
        assert abs(sample_variance - variance) <= 4 * d * math.sqrt(variance / self.ROUNDS) + 1e-12

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


class TestBinomialPmf:
    # The per-call Binomial(n, alpha) table the K histograms are drawn
    # from, against scipy's binomial pmf.
    @pytest.mark.parametrize("n", [1, 10, 1000, 2**20])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 5e-324, 0.3, 1.0 - 2**-53])
    def test_matches_scipy(self, n, alpha):
        with np.errstate(all="raise"):
            ks, pmf = _binomial_pmf(n, alpha)
        assert np.array_equal(ks, np.arange(ks[0], ks[-1] + 1))
        reference = stats.binom.pmf(np.arange(n + 1), n, alpha)
        nonzero = np.flatnonzero(reference > 0)
        assert ks[0] <= nonzero[0] and nonzero[-1] <= ks[-1]
        assert abs(pmf.sum() - 1.0) <= 1e-12
        expected = reference[ks.astype(int)]
        tested = expected > 1e-300
        assert np.all(np.abs(pmf[tested] - expected[tested]) <= 1e-9 * expected[tested])


class TestExpectedOffers:
    # The closed form over the Binomial window against the enumeration of
    # P(offers > j) over every k, including groups that always or never
    # refuse (|u| = 40 gives p_rej = 1.0 and p_rec = 4e-18).
    @pytest.mark.parametrize("n", [1, 2, 5, 37, 200])
    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.5, 0.97, 1.0])
    @pytest.mark.parametrize("u", [1e-9, 0.1, 1.0, 5.0, 40.0])
    def test_matches_exact_enumeration(self, n, alpha, u):
        scn = WorstCaseScenario(n=n, u_minus=-u, u_plus=u, beta=1.0, delta=0.1)
        expected = exact_mean_offers(n, alpha, *group_reject_probs(scn))
        assert expected_offers(scn, alpha) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    def test_receptive_agents_that_never_refuse(self, n, alpha):
        # p_rec rounds to 0 while p_rej < 1: at alpha = 0, x = 0.
        scn = WorstCaseScenario(n=n, u_minus=-1.0, u_plus=800.0, beta=1.0, delta=0.1)
        probs = group_reject_probs(scn)
        assert probs[1] == 0.0
        expected = exact_mean_offers(n, alpha, *probs)
        assert expected_offers(scn, alpha) == pytest.approx(expected, rel=1e-13)

    def test_alpha_validation(self):
        scn = WorstCaseScenario(n=3, u_minus=-2.0, u_plus=2.0, beta=1.0, delta=0.1)
        with pytest.raises(ValueError, match="alpha"):
            expected_offers(scn, 1.5)

    def test_memory_is_constant_in_n(self):
        # A sum over the Binomial(n, alpha) window would hold about
        # 2 sqrt(373 n) floats, 206 MiB here. With x**n = 0 the receptive
        # group never all refuses, and the mean is 1 / (1 - p_rec).
        scn = WorstCaseScenario(n=10**10, u_minus=-2.0, u_plus=2.0, beta=1.0, delta=0.1)
        tracemalloc.start()
        try:
            mean = expected_offers(scn, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert mean == pytest.approx(1.0 / (1.0 - group_reject_probs(scn)[1]), rel=1e-13)


class TestMixtureBatchCalibration:
    # Over 200 seeds, the share of all-reject rates (and of mean offers)
    # more than 2 standard errors from W (and from the exact mean) must be
    # that of a normal variable, 4.55%, within the 99.9% binomial limits for
    # 200 trials.
    SEEDS, ROUNDS = 200, 20_000

    @pytest.mark.parametrize("n,alpha,u", [(10, 0.5, 2.0), (3, 0.3, 1.0)])
    def test_share_of_large_z(self, n, alpha, u):
        scn = WorstCaseScenario(n=n, u_minus=-u, u_plus=u, beta=1.0, delta=0.1)
        w = binomial_sum_w(n, alpha, *group_reject_probs(scn))
        se = math.sqrt(w * (1.0 - w) / self.ROUNDS)
        rates = np.array(
            [mixture_batch(scn, alpha, self.ROUNDS, seed).all_reject_rate for seed in range(self.SEEDS)]
        )
        outside = int(np.count_nonzero(np.abs(rates - w) > 2 * se))
        lo, hi = stats.binom.interval(0.999, self.SEEDS, 2 * stats.norm.sf(2.0))
        assert lo <= outside <= hi, (outside, lo, hi)

    @pytest.mark.parametrize("n,alpha,u", [(10, 0.5, 2.0), (3, 0.3, 1.0)])
    def test_share_of_large_offers_z(self, n, alpha, u):
        # Each z uses the run's own standard error, so this checks it too.
        scn = WorstCaseScenario(n=n, u_minus=-u, u_plus=u, beta=1.0, delta=0.1)
        mean = exact_mean_offers(n, alpha, *group_reject_probs(scn))
        results = [mixture_batch(scn, alpha, self.ROUNDS, seed) for seed in range(self.SEEDS)]
        z = np.array([(r.mean_offers - mean) / r.mean_offers_std_error for r in results])
        outside = int(np.count_nonzero(np.abs(z) > 2))
        lo, hi = stats.binom.interval(0.999, self.SEEDS, 2 * stats.norm.sf(2.0))
        assert lo <= outside <= hi, (outside, lo, hi)


class TestMixtureBatchEdges:
    @pytest.mark.parametrize("rounds", [1, ROUND_CHUNK - 1, ROUND_CHUNK, ROUND_CHUNK + 1])
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
        assert always == MixtureBatchResult(
            rounds=rounds, all_reject_rate=1.0, mean_offers=float(n), mean_offers_std_error=0.0,
            analytic_all_reject=1.0, analytic_mean_offers=float(n),
        )
        assert never == MixtureBatchResult(
            rounds=rounds, all_reject_rate=0.0, mean_offers=1.0, mean_offers_std_error=0.0,
            analytic_all_reject=worst_case_prob(scn, 0.0), analytic_mean_offers=1.0,
        )

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

    def test_memory_is_bounded_for_the_largest_pool(self):
        # The Binomial(n, alpha) table holds O(sqrt(n)) entries: about
        # 158,000 at n = 2**24.
        scn = WorstCaseScenario(n=2**24, u_minus=-2.0, u_plus=2.0, beta=1.0, delta=0.1)
        tracemalloc.start()
        try:
            mixture_batch(scn, alpha=0.5, rounds=1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
