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
from .worstcase import WorstCaseScenario, group_reject_probs, group_worst_case_prob

_MAX_SEED = 2**64 - 1

# Rounds per chunk of mixture_batch, whose arrays stay in cache, and
# excursions per block of simulate_chain, whose few draws per block do not
# depend on it.
_CHUNK = 2**14

# A failure total whose Poisson rate reaches this is left undrawn, held as
# its rate (_poisson). Such a total exceeds MAX_STEPS + 1 with probability
# 1 - exp(-10**15), so its block outlasts the walk; a split draws each share
# once its rate falls below. 2**50 keeps every drawn total within numpy's
# Poisson range and every time summed from them exact in float64.
_UNDRAWN = 2.0**50

# Splits per end of the counted steps placed by guessing (_count).
_GUESSES = 8

# Size caps, checked before anything is allocated. simulate_chain keeps a
# few scalars per level of its splits, and mixture_batch O(_CHUNK) memory,
# about 1-2 MiB, plus its Binomial table (under 5 MiB at n = 2**24),
# whatever the request, so both caps bound time (2-CPU machine, whose speed
# varied by up to 2x between runs). simulate_chain takes seven scalar
# draws, about 8 us, per block of _CHUNK excursions: its slowest walk at
# MAX_STEPS, about 20,000 blocks of three-step excursions (p_good and
# p_accept near 1, p_success near 0), takes about 0.2 s. mixture_batch runs
# at 2.5e7 to 3.6e7 rounds/s for n = 1 and 4e7 to 8e7 for n = 10, so the
# slowest request at MAX_ROUND_DRAWS, 2**24 rounds of one agent, takes 0.4
# to 0.7 s; one round of 2**24 agents takes about 7 ms.
MAX_STEPS = 10**9
MAX_ROUND_DRAWS = 2**24


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream).

    Distinct streams give non-overlapping sequences for the same seed, so
    unrelated consumers of one master seed stay statistically independent.
    The key is given as uint64: a list of ints would pass through float64
    once the seed reaches 2**63, which loses its low bits.
    """
    seed = integer("seed", seed, 0, _MAX_SEED)
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


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
    # Past about 1e307 the product overflows to inf, which the cap ends.
    with np.errstate(over="ignore"):
        trials = exp_draws * scale
    return np.minimum(np.floor(trials) + 1.0, cap)


def _odds(leave: float, stay: float) -> float:
    """Failure odds stay / leave of a visit whose leave probability is
    `leave` (stay = 1 - leave, passed exactly): the mean number of failed
    leave attempts per success. inf where the state is never left."""
    return stay / leave if leave > 0.0 else math.inf


def _poisson(rng, rate: float):
    """(total, drawn): a Poisson(rate) draw, or the rate itself, undrawn,
    where it reaches _UNDRAWN. An inf rate, a state never left, stays inf."""
    if rate >= _UNDRAWN:
        return rate, False
    return float(rng.poisson(rate)), True


def _failures(rng, visits: int, odds: float):
    """(total, drawn): the failed leave attempts summed over `visits` stays
    of failure odds `odds`. Each stay's failures are Geometric, so their
    sum is NB(visits, p), drawn as a Poisson whose rate is odds times a
    Gamma(visits) variate (Devroye 1986, ch. X)."""
    if visits == 0 or odds == 0.0:
        return 0.0, True
    return _poisson(rng, rng.standard_gamma(visits) * odds)


def _split_failures(rng, failures, first: int, second: int):
    """The shares of a failure total of first + second stays that fall on
    the first `first` stays and on the last `second`. Given the total F,
    the first share is Beta-binomial(F; first, second), drawn as
    Binomial(F, Beta(first, second)). An undrawn total's rate splits by
    the same Beta, and the two shares' Poisson draws are then independent."""
    total, drawn = failures
    if second == 0 or total == 0.0:
        return failures, (0.0, True)
    if first == 0:
        return (0.0, True), failures
    if drawn:
        head = float(rng.binomial(int(total), rng.beta(first, second)))
        return (head, True), (total - head, True)
    # Both shares of the latent Gamma(first + second) variate, so that
    # neither loses precision when the other takes nearly all of it.
    g1, g2 = rng.standard_gamma(first), rng.standard_gamma(second)
    return _poisson(rng, total * (g1 / (g1 + g2))), _poisson(rng, total * (g2 / (g1 + g2)))


def _split(rng, block, k1: int):
    """A block's first k1 excursions and the rest, drawn from the exact
    law of each part given the block's totals."""
    k, m, (f0, f1, f3) = block
    k2 = k - k1
    # Given m opened excursions among k, which ones opened is a uniform
    # m-subset, so the first part holds Hypergeometric(k1, k2, m) of them:
    # for a part of one excursion, one opened with probability m / k.
    m1 = k1 if m == k else 0
    if 0 < m < k:
        if k1 == 1:
            m1 = int(rng.random() * k < m)
        elif k2 == 1:
            m1 = m - int(rng.random() * k < m)
        else:
            m1 = int(rng.hypergeometric(k1, k2, m))
    m2 = m - m1
    first, second = zip(
        _split_failures(rng, f0, k1, k2),
        _split_failures(rng, f1, k1, k2),
        _split_failures(rng, f3, m1, m2),
    )
    return (k1, m1, first), (k2, m2, second)


def _count(rng, block, start: float, lo: int, hi: int, counts: list, aim) -> float:
    """Add to `counts` the visits of a block, entered at time `start`, that
    fall in the counted steps [lo, hi); return the time the block ends.

    A block is (k, m, failures): k excursions, m of them through Gate
    Opened, and the failure totals of Gate Closed, Pathfinder Selection and
    Gate Opened. Its stays in the four states total k + F0, k + F1, k and
    m + F3 steps. A block wholly inside [lo, hi) adds these totals and a
    block wholly outside adds nothing. One that straddles lo or hi is split
    in two by _split and each part is counted in turn, down to a single
    excursion, which is clipped visit by visit.

    `aim` is (edge, guesses): the end that the enclosing split was aimed
    at, and how many more splits at that end may be placed by guessing. A
    guess cuts where the end falls in proportion to the block's length,
    which lands within a few excursions of the straddling one when the
    excursions are alike. Excursions of very unequal lengths can defeat
    it, so after _GUESSES guesses at one end the splits halve the block:
    each end costs at most _GUESSES + log2(k) splits.
    """
    k, m, ((f0, _), (f1, _), (f3, _)) = block
    end = start + 3 * k + m + f0 + f1 + f3
    if end <= lo or start >= hi:
        return end
    stays = (k + f0, k + f1, k, m + f3)
    if lo <= start and end <= hi:
        for state, stay in enumerate(stays):
            counts[state] += stay
        return end
    if k == 1:
        # The visit [u, v) covers clip(v) - clip(u) counted steps, clip
        # clamping to [lo, hi].
        u = start
        for state, stay in enumerate(stays):
            v = u + stay
            counts[state] += min(max(v, lo), hi) - min(max(u, lo), hi)
            u = v
        return end
    edge = lo if start < lo else hi
    guesses = aim[1] if aim[0] == edge else _GUESSES
    if guesses:
        k1 = min(max(round(k * (edge - start) / (end - start)), 1), k - 1)
    else:
        k1 = k // 2
    first, second = _split(rng, block, k1)
    aim = (edge, max(guesses - 1, 0))
    middle = _count(rng, first, start, lo, hi, counts, aim)
    if middle >= hi:
        return middle
    return _count(rng, second, middle, lo, hi, counts, aim)


def simulate_chain(params: ChainParams, cfg: SimConfig) -> np.ndarray:
    """State-visit frequencies of the chain started in Gate Closed.

    Runs cfg.steps transitions, discards the first cfg.burn_in visited
    states, and normalizes the remaining visit counts.

    The walk is drawn by holding times rather than step by step. Every
    excursion from Gate Closed visits 0, 1 and 2 and then, with probability
    p_success, 3 before it returns to 0. States 0, 1 and 3 loop on
    themselves, so each visit lasts a geometric number of steps; state 2 is
    always left after one. Excursions are drawn in blocks of at most
    _CHUNK, each as its sufficient totals: how many excursions pass through
    Gate Opened, Binomial(k, p_success), and the failed leave attempts in
    each looping state, negative binomial. That is a handful of draws per
    block whatever its length. Only the blocks that straddle an end of the
    counted steps are split further, by the exact conditional laws of their
    parts (_split, _count), so each end costs O(log _CHUNK) draws and
    memory. Times are whole numbers held in float64; MAX_STEPS and
    _UNDRAWN keep every time and sum far below 2**53, so all are exact.

    A leave probability of 0 makes the stay infinite, and one so small
    that its Poisson rate reaches _UNDRAWN makes it outlast the walk; the
    walk then ends inside that stay.
    """
    g, a, s = params.p_good, params.p_accept, params.p_success
    rng = make_rng(cfg.seed, _STREAM_CHAIN)
    # X_0 = Gate Closed; the visited states X_t with lo <= t < hi are counted.
    lo, hi = cfg.burn_in + 1, cfg.steps + 1
    # An excursion lasts at least 3 steps, so a walk of fewer than 3 * _CHUNK
    # steps needs only one block, sized to it.
    k = min(_CHUNK, hi // 3 + 1)
    odds = (_odds(g, 1.0 - g), _odds(a, 1.0 - a), _odds(1.0 - g, g))
    counts = [0.0] * N_STATES
    start = 0.0  # time at which the next block enters Gate Closed
    while start < hi:
        m = int(rng.binomial(k, s))
        failures = (
            _failures(rng, k, odds[0]),
            _failures(rng, k, odds[1]),
            _failures(rng, m, odds[2]),
        )
        start = _count(rng, (k, m, failures), start, lo, hi, counts, (None, 0))
    return np.array(counts) / (hi - lo)


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
    # The standard error of mean_offers from the rounds' sample variance;
    # None for a single round.
    mean_offers_std_error: float | None
    # What all_reject_rate and mean_offers estimate, worst_case_prob(scn,
    # alpha) and expected_offers(scn, alpha), worked out from the batch's
    # own group probabilities.
    analytic_all_reject: float
    analytic_mean_offers: float


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


def _binomial_pmf(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(ks, pmf): a window of k values, as floats, holding every k whose
    Binomial(n, alpha) probability is nonzero in float64, and those
    probabilities, summing to 1.

    By Hoeffding (1963), P(|K - n alpha| >= t) <= 2 exp(-2 t^2 / n), which
    is below 2**-1075 once t^2 >= 373 n. The window is therefore
    n alpha +- (sqrt(373 n) + 1), clipped to [0, n]: O(sqrt(n)) entries.
    The log-probabilities are summed outward from the mode from the ratios
    p(k+1) / p(k), so no partial sum spans the far tails, and exponentiated
    relative to the mode.
    """
    if alpha == 0.0 or alpha == 1.0:
        return np.array([alpha * n]), np.ones(1)
    half = math.sqrt(373 * n) + 1.0
    lo, hi = max(0, math.floor(n * alpha - half)), min(n, math.ceil(n * alpha + half))
    ks = np.arange(lo, hi + 1.0)
    # log p(k+1) - log p(k), decreasing in k, so the mode follows its last positive value.
    up = np.log((n - ks[:-1]) / (ks[:-1] + 1.0)) + (math.log(alpha) - math.log1p(-alpha))
    mode = int(np.count_nonzero(up > 0))
    log_p = np.zeros(ks.size)
    log_p[mode + 1 :] = np.cumsum(up[mode:])
    log_p[:mode] = -np.cumsum(up[:mode][::-1])[::-1]
    # exp and the divide underflow in the far tails, which read 0.
    with np.errstate(under="ignore"):
        pmf = np.exp(log_p)
        pmf /= pmf.sum()
    return ks, pmf


def mixture_batch(
    scn: WorstCaseScenario, alpha: float, rounds: int, seed: int
) -> MixtureBatchResult:
    """Repeated offer rounds over a two-group agent pool.

    Each round independently assigns each of the scn.n agents to the
    rejective group with probability alpha, then walks the offer order
    (receptive agents first, mirroring payoff-descending ranking) until an
    acceptance. The all-reject frequency is the empirical counterpart of
    worst_case_prob(scn, alpha), and the mean offers that of
    expected_offers(scn, alpha); the result carries both, worked out from
    the group probabilities the rounds use.

    A round takes one draw, not one per agent, once its K ~ Binomial(n,
    alpha) rejective agents are known, and a second only when every
    receptive agent refuses. Offers within a group are independent trials,
    so the first acceptance among the n - K receptive agents, offered first,
    lies at g_rec ~ Geometric(1 - p_rec), drawn from an Exp(1) variate. The
    round makes g_rec offers if g_rec <= n - K. Otherwise the first
    acceptance among the K rejective agents lies at g_rej ~ Geometric(1 -
    p_rej), drawn from a second Exp(1) variate for these rounds alone, and
    the round makes (n - K) + g_rej offers if g_rej <= K, else all n agents
    reject. This is the law of the per-agent walk.

    Rounds run in chunks of _CHUNK with three running sums (all-reject
    rounds, offers and squared offers), so memory is O(chunk + sqrt(n)) and
    time O(rounds) plus O(sqrt(n)) a chunk. The rounds of a chunk are
    i.i.d., so the histogram of their K values is Multinomial(chunk, pmf),
    drawn once per chunk from the Binomial(n, alpha) probabilities, which
    are worked out once per call. The geometric draws are i.i.d. and
    independent of K, so pairing the g_rec draws with the K values in
    sorted order, and the g_rej draws with the refused rounds in order,
    keeps the joint law of the rounds; only sums over rounds are reported.
    """
    alpha = check_batch(scn, alpha, rounds, seed)
    rounds = int(rounds)
    rng = make_rng(seed, _STREAM_MIXTURE)
    probs = p_rej, p_rec = group_reject_probs(scn)
    n = scn.n
    ks, pmf = _binomial_pmf(n, alpha)
    all_reject = offers = offers_sq = 0
    for start in range(0, rounds, _CHUNK):
        size = min(_CHUNK, rounds - start)
        rejective = np.repeat(ks, rng.multinomial(size, pmf))
        receptive = n - rejective
        # Capped at n + 1: beyond every group size.
        g_rec = _geometric(rng.standard_exponential(size), 1.0 - p_rec, n + 1)
        refused = g_rec > receptive  # every receptive agent refused
        made = np.minimum(g_rec, receptive)
        # Only the refused rounds read the rejective stage: receptive +
        # g_rej offers, or n when every rejective agent refuses too (g_rej > K).
        k_refused = rejective[refused]
        g_rej = _geometric(rng.standard_exponential(k_refused.size), 1.0 - p_rej, n + 1)
        made[refused] += np.minimum(g_rej, k_refused)
        all_reject += int(np.count_nonzero(g_rej > k_refused))
        # Whole numbers, and a chunk's sum of squares is at most
        # size * n**2 <= MAX_ROUND_DRAWS * n <= 2**48, so both sums are exact.
        offers += int(made.sum())
        offers_sq += int(made @ made)
    # The rounds' sample variance, from exact integer sums.
    spread = rounds * offers_sq - offers * offers
    return MixtureBatchResult(
        rounds=rounds,
        all_reject_rate=all_reject / rounds,
        mean_offers=offers / rounds,
        mean_offers_std_error=math.sqrt(spread / (rounds - 1)) / rounds if rounds > 1 else None,
        analytic_all_reject=group_worst_case_prob(n, alpha, probs),
        analytic_mean_offers=_expected_offers(n, alpha, probs),
    )


def expected_offers(scn: WorstCaseScenario, alpha) -> float:
    """Mean offers of a mixture_batch round, in closed form: the empirical
    mean_offers estimates it.

    Given K = k rejective agents, the m = n - k receptive ones are offered
    first and all refuse with probability r**m, so E[offers | K = k] =
    (1 - r**m)/(1 - r) + r**m (1 - q**k)/(1 - q) with r = p_rec and q =
    p_rej. Over K ~ Binomial(n, alpha), E[r**m] = x**n with x = alpha +
    (1 - alpha) r, and E[r**m q**k] = W = (alpha q + (1 - alpha) r)**n, so

        E[offers] = (1 - x**n)/(1 - r) + (x**n - W)/(1 - q),

    which takes O(1) time and memory whatever n.
    """
    alpha = number("alpha", alpha, 0, 1)
    return _expected_offers(scn.n, alpha, group_reject_probs(scn))


def _expected_offers(n: int, alpha: float, probs) -> float:
    """expected_offers from the (p_rej, p_rec) pair of group_reject_probs,
    where p_rec <= 0.5 <= p_rej. x**n is exp(n log1p(-(1 - alpha)(1 - r))),
    as x rounded to a double would put an error of n ulps in its power, and
    x**n - W is -x**n expm1(n log1p(-alpha (1 - q) / x)), so that neither
    difference cancels. At q = 1 the second term is its limit
    n alpha x**(n - 1)."""
    q, r = probs
    x = alpha + (1.0 - alpha) * r
    accept = (1.0 - alpha) * (1.0 - r)  # 1 - x
    # math refuses log1p(-1); 1 - x rounds to 1 only where x < 2**-53, and
    # x**n is taken as 0 there.
    log_x_n = n * math.log1p(-accept) if accept < 1.0 else -math.inf
    x_n = math.exp(log_x_n)
    receptive = -math.expm1(log_x_n) / (1.0 - r)
    if alpha == 0.0:  # no rejective agent, and x may be 0
        rejective = 0.0
    elif q == 1.0:
        rejective = n * alpha * (x_n / x)
    else:
        w_ratio = math.expm1(n * math.log1p(-alpha * (1.0 - q) / x))  # W / x**n - 1
        rejective = -x_n * w_ratio / (1.0 - q)
    return receptive + rejective
