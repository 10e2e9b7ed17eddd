"""Seeded Monte Carlo: chain trajectories and sequential offer rounds.

Randomness comes from numpy's Philox counter-based generator, so a given
seed produces the same stream on every platform and independent streams can
be derived for parallel work. All entry points take an explicit seed;
identical inputs and seed give bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .agents import ControllerCandidate, ControllerContext, p_accept, rank_candidates
from .chain import N_STATES, ChainParams
from .errors import integer, number
from .worstcase import WorstCaseScenario, group_reject_probs

_MAX_SEED = 2**64 - 1

# Excursions drawn per chunk by simulate_chain, and rounds per chunk by
# mixture_batch. Each chunk's arrays stay in cache (2**13 to 2**14 was
# fastest on 2e6 steps).
_CHUNK = 2**14

# Size caps, checked before anything is allocated. Both simulations keep
# O(_CHUNK) memory, about 1-2 MiB whatever the request, so both caps bound
# time (2-CPU machine). simulate_chain runs at 2.7e7 steps/s or more (worst
# case p_good = p_accept = 1, p_success = 0): about 40 s at MAX_STEPS.
# mixture_batch runs at about 1.2e7 rounds/s for n = 1 and 0.9e7 for
# n = 10, so the slowest request at MAX_ROUND_DRAWS, 2**24 rounds of one
# agent, takes about 1.5 s.
MAX_STEPS = 10**9
MAX_ROUND_DRAWS = 2**24


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream).

    Distinct streams give non-overlapping sequences for the same seed, so
    unrelated consumers of one master seed stay statistically independent.
    """
    seed = integer("seed", seed, 0, _MAX_SEED)
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


# Fixed stream ids per consumer; parallel callers derive their own by offset.
_STREAM_CHAIN = 0
_STREAM_SELECTION = 1
_STREAM_MIXTURE = 2
STREAM_CORPUS = 3


@dataclass(frozen=True)
class SimConfig:
    seed: int
    steps: int
    burn_in: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", integer("seed", self.seed, 0, _MAX_SEED))
        object.__setattr__(self, "steps", integer("steps", self.steps, 1, MAX_STEPS))
        object.__setattr__(self, "burn_in", integer("burn_in", self.burn_in, 0, self.steps - 1))


@dataclass(frozen=True)
class SelectionOutcome:
    """Result of one offer round. accepted_by is None when every candidate
    rejected (the worst case); otherwise it equals
    order_used[offers_made - 1]."""

    accepted_by: str | None
    offers_made: int
    order_used: tuple[str, ...]


def _geometric(exp_draws: np.ndarray, p: float, cap: int):
    """Trials up to and including the first success, success probability p
    per trial, one per Exp(1) draw: floor(E / -log(1 - p)) + 1 is
    Geometric(p) on {1, 2, ...} (Devroye 1986, ch. X). Clipped to `cap`; a
    trial that never succeeds gives `cap`, which callers choose beyond any
    count they test. Degenerate p gives a scalar."""
    if p == 1.0:
        return 1.0
    if p == 0.0:
        return cap
    scale = -1.0 / math.log1p(-p)
    if math.isinf(scale):  # subnormal p: no success within the cap
        return cap
    return np.minimum(np.floor(exp_draws * scale) + 1.0, cap)


def simulate_chain(params: ChainParams, cfg: SimConfig) -> np.ndarray:
    """State-visit frequencies of the chain started in Gate Closed.

    Runs cfg.steps transitions, discards the first cfg.burn_in visited
    states, and normalizes the remaining visit counts.

    The walk is drawn by holding times rather than step by step. Every
    excursion from Gate Closed visits 0, 1 and 2 and then, with probability
    p_success, 3 before it returns to 0. States 0, 1 and 3 loop on
    themselves, so each visit lasts a geometric number of steps; state 2 is
    always left after one. Excursions are drawn in chunks of at most
    _CHUNK, so memory is O(chunk) and time O(jumps). Times are whole
    numbers held in float64; MAX_STEPS keeps every time and sum far below
    2**53, so all of them are exact.
    """
    g, a, s = params.p_good, params.p_accept, params.p_success
    rng = make_rng(cfg.seed, _STREAM_CHAIN)
    # X_0 = Gate Closed; the visited states X_t with lo <= t < hi are counted.
    lo, hi = cfg.burn_in + 1, cfg.steps + 1
    # An excursion lasts at least 3 steps, so a walk of fewer than 3 * _CHUNK
    # steps needs only one chunk, sized to it.
    chunk = min(_CHUNK, hi // 3 + 1)
    counts = np.zeros(N_STATES)
    start = 0.0  # time at which the next excursion enters Gate Closed
    while start < hi:
        exp_draws = rng.standard_exponential((3, chunk))
        opened = rng.random(chunk) < s
        stays = (
            _geometric(exp_draws[0], g, hi),
            _geometric(exp_draws[1], a, hi),
            1.0,
            np.where(opened, _geometric(exp_draws[2], 1.0 - g, hi), 0.0),
        )
        length = stays[0] + stays[1] + stays[2] + stays[3]
        # Visit boundaries, from each excursion's entry into Gate Closed to
        # its return. A visit [u, v) covers clip(v) - clip(u) counted steps,
        # clip clamping to [lo, hi], so each state's count is the difference
        # of the clipped sums of its two boundaries.
        bound = np.cumsum(length)
        bound += start - length
        clipped_sums = [np.clip(bound, lo, hi).sum()]
        for stay in stays:
            bound = bound + stay
            clipped_sums.append(np.clip(bound, lo, hi).sum())
        counts += np.diff(clipped_sums)
        start = bound[-1]
    return counts / (hi - lo)


def run_selection_round(
    candidates: list[ControllerCandidate], ctx: ControllerContext, seed: int
) -> SelectionOutcome:
    """Extend offers in payoff order until one is accepted or all reject."""
    if not candidates:
        raise ValueError("cannot run a selection round without candidates")
    order = rank_candidates(candidates, ctx)
    by_id = {c.profile.id: c for c in candidates}
    rng = make_rng(seed, _STREAM_SELECTION)
    for i, cid in enumerate(order):
        if rng.random() < p_accept(by_id[cid].profile):
            return SelectionOutcome(accepted_by=cid, offers_made=i + 1, order_used=tuple(order))
    return SelectionOutcome(accepted_by=None, offers_made=len(order), order_used=tuple(order))


@dataclass(frozen=True)
class MixtureBatchResult:
    rounds: int
    all_reject_rate: float
    mean_offers: float


def check_batch(scn: WorstCaseScenario, alpha, rounds, seed) -> float:
    """Validate mixture_batch's arguments without allocating anything;
    return alpha as a float. rounds x scn.n must not exceed MAX_ROUND_DRAWS.
    """
    alpha = number("alpha", alpha, 0, 1)
    rounds = integer("rounds", rounds, 1)
    if rounds * scn.n > MAX_ROUND_DRAWS:
        raise ValueError(
            f"rounds x n must not exceed {MAX_ROUND_DRAWS} agent draws, "
            f"got {rounds} x {scn.n}"
        )
    integer("seed", seed, 0, _MAX_SEED)
    return alpha


def mixture_batch(
    scn: WorstCaseScenario, alpha: float, rounds: int, seed: int
) -> MixtureBatchResult:
    """Repeated offer rounds over a two-group agent pool.

    Each round independently assigns each of the scn.n agents to the
    rejective group with probability alpha, then walks the offer order
    (receptive agents first, mirroring payoff-descending ranking) until an
    acceptance. The all-reject frequency is the empirical counterpart of
    worst_case_prob(scn, alpha).

    A round takes three draws, not one per agent. K ~ Binomial(n, alpha)
    agents are rejective. Offers within a group are independent trials, so
    the first acceptance among the n - K receptive agents, offered first,
    lies at g_rec ~ Geometric(1 - p_rec), and the first among the K
    rejective agents at g_rej ~ Geometric(1 - p_rej), both drawn from
    Exp(1) variates. The round makes g_rec offers if g_rec <= n - K, else
    (n - K) + g_rej if g_rej <= K, else all n agents reject. This is the law
    of the per-agent walk. Rounds run in chunks of _CHUNK with two running
    counts, so memory is O(chunk) and time O(rounds) whatever n is.
    """
    alpha = check_batch(scn, alpha, rounds, seed)
    rng = make_rng(seed, _STREAM_MIXTURE)
    p_rej, p_rec = group_reject_probs(scn)
    n = scn.n
    all_reject = offers = 0
    for start in range(0, rounds, _CHUNK):
        size = min(_CHUNK, rounds - start)
        rejective = rng.binomial(n, alpha, size)
        exp_draws = rng.standard_exponential((2, size))
        receptive = n - rejective
        # Capped at n + 1: beyond every group size.
        g_rec = _geometric(exp_draws[0], 1.0 - p_rec, n + 1)
        g_rej = _geometric(exp_draws[1], 1.0 - p_rej, n + 1)
        rec_accepts = g_rec <= receptive
        # Offers past the receptive group: receptive + g_rej, or n when
        # every rejective agent refuses too (g_rej > K).
        offers += int(
            np.where(rec_accepts, g_rec, np.minimum(receptive + g_rej, n)).sum()
        )
        all_reject += int(np.count_nonzero(~rec_accepts & (g_rej > rejective)))
    return MixtureBatchResult(
        rounds=int(rounds),
        all_reject_rate=all_reject / rounds,
        mean_offers=offers / rounds,
    )
