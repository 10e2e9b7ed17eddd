"""Four-state gate/pathfinding Markov chain and its stationary behavior.

States are indexed 0..3: Gate Closed, Pathfinder Selection, Pathfinding,
Gate Opened. Transitions are driven by three probabilities: favorable
weather observation (p_good = g), offer acceptance (p_accept = a), and
pathfinding success (p_success = s).

The balance equations of this chain solve by hand. On the whole cube
[0, 1]^3 the stationary distribution is proportional to

    (a(1-g), g(1-g), a g (1-g), a s g),

and it is unique unless all four terms vanish, that is when g = 1 and
(a = 0 or s = 0), or g = 0 and a = 0; those chains have two closed classes.
Uniqueness is therefore decided from the parameters, with no tolerance.

All functions here are pure. One broadcasting kernel, `stationary`, serves
single chains and whole sweeps alike.

`simulate_chain` is the chain's seeded Monte Carlo check: it walks the chain
by holding times and returns the state-visit frequencies, which estimate pi.
Its generator comes from `simulate.make_rng`, imported when it draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MAX_SEED, NonUniqueStationary, integer, number, number_array, step_grid
from .fileio import grid_csv, text_fields

N_STATES = 4

# Entries of the 4x4 transition matrix that are structurally zero.
STRUCTURAL_ZEROS = ((0, 2), (0, 3), (1, 0), (1, 3), (2, 1), (2, 2), (3, 1), (3, 2))

# Largest stationarity residual `stationary` accepts from its own result.
_RESIDUAL_TOL = 1e-10

# Cap on the cells of one sweep, checked before anything is allocated. A sweep
# written as CSV holds about 320 bytes per cell at peak (tracemalloc around
# `cli.main`): the records, and the text twice, as blocks and joined. So the
# cap bounds memory to about 80 MiB. At the cap a sweep takes about 0.26 s
# (2-CPU machine), of which the solve takes about 0.07 s and writing the
# floats through `fileio.float_fields` most of the rest.
MAX_SWEEP_CELLS = 2**18


@dataclass(frozen=True)
class ChainParams:
    """The probability triple driving the chain."""

    p_good: float
    p_accept: float
    p_success: float

    def __post_init__(self):
        for name in ("p_good", "p_accept", "p_success"):
            object.__setattr__(self, name, number(name, getattr(self, name), 0, 1))


# The grid a config's omitted chain key sweeps: 0.05, 0.1, ..., 0.95.
DEFAULT_GRID = tuple(step_grid(0.05, 0.95, 0.05, 19))


# One record per sweep cell. pi is NaN and status 'non_unique' where the
# chain has several recurrent classes; status is 'ok' elsewhere.
SWEEP_DTYPE = np.dtype(
    [("p_good", float), ("p_accept", float), ("p_success", float),
     ("pi", float, (N_STATES,)), ("status", "U10")]
)


def _probabilities(p_good, p_accept, p_success) -> list[np.ndarray]:
    """The three arguments as broadcast float arrays, each checked to lie in
    [0, 1]."""
    return np.broadcast_arrays(
        number_array("p_good values", p_good, 0, 1),
        number_array("p_accept values", p_accept, 0, 1),
        number_array("p_success values", p_success, 0, 1),
    )


def transition_matrices(p_good, p_accept, p_success) -> np.ndarray:
    """Stack of 4x4 row-stochastic transition matrices.

    The three arguments broadcast against each other; the result has their
    broadcast shape followed by (4, 4).
    """
    g, a, s = _probabilities(p_good, p_accept, p_success)
    matrices = np.zeros(g.shape + (N_STATES, N_STATES))
    matrices[..., 0, 0] = 1.0 - g
    matrices[..., 0, 1] = g
    matrices[..., 1, 1] = 1.0 - a
    matrices[..., 1, 2] = a
    matrices[..., 2, 0] = 1.0 - s
    matrices[..., 2, 3] = s
    matrices[..., 3, 0] = 1.0 - g
    matrices[..., 3, 3] = g
    return matrices


def _closed_form(g, a, s) -> np.ndarray:
    """pi proportional to (a(1-g), g(1-g), a g (1-g), a s g), normalized.

    For g < 1 the terms are divided by 1 - g, so pi is proportional to
    (a, g, a g, a s q) with q = g / (1 - g) <= 2^53. With T their sum, pi0 =
    a / T, pi1 = g / T, pi2 = a pi1 and pi3 = s (a q / T), where a q / T is
    taken as q pi0 for q <= 1 and as (q a) / T for q > 1, so no product of
    two small factors is formed before the division. Every component is then
    accurate to a few ulps, or to a few subnormal ulps where its value
    underflows. At g = 1 only the last term is left and pi = e3. Cells with
    no unique distribution come out NaN or e3; the caller masks them.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        q = g / (1.0 - g)
        total = a + g + a * g + a * s * q
        pi0, pi1 = a / total, g / total
        pi3 = s * np.where(q > 1.0, q * a / total, q * pi0)
        pi = np.stack([pi0, pi1, a * pi1, pi3], axis=-1)
    return np.where((g == 1.0)[..., None], np.eye(N_STATES)[3], pi)


def _balance_residual(pi, g, a, s) -> np.ndarray:
    """|inflow - outflow| at each state, from the four balance equations."""
    pi0, pi1, pi2, pi3 = np.moveaxis(pi, -1, 0)
    h = 1.0 - g
    return np.abs(np.stack([
        (1.0 - s) * pi2 + h * pi3 - g * pi0,
        g * pi0 - a * pi1,
        a * pi1 - pi2,
        s * pi2 - h * pi3,
    ], axis=-1))


def stationary(p_good, p_accept, p_success) -> tuple[np.ndarray, np.ndarray]:
    """Stationary distribution of every chain of a broadcast stack.

    The three arguments broadcast against each other (shape S). Returns
    (pi, unique): pi has shape S + (4,), and unique is a boolean array of
    shape S. A chain is not unique when it has two closed classes, exactly
    when g = 1 and (a = 0 or s = 0), or g = 0 and a = 0; its pi row is NaN.

    Raises ValueError if a probability lies outside [0, 1] or is NaN, and
    ArithmeticError if a unique cell's balance residual exceeds 1e-10 (a
    self-check of the closed form).
    """
    g, a, s = _probabilities(p_good, p_accept, p_success)
    unique = ~(((g == 1.0) & ((a == 0.0) | (s == 0.0))) | ((g == 0.0) & (a == 0.0)))
    pi = np.where(unique[..., None], _closed_form(g, a, s), np.nan)
    residual = np.where(unique[..., None], _balance_residual(pi, g, a, s), 0.0)
    worst = residual.max(initial=0.0)
    if not worst <= _RESIDUAL_TOL:
        raise ArithmeticError(f"stationarity residual {worst:.3e} exceeds {_RESIDUAL_TOL:g}")
    return pi, unique


def steady_state(p_good, p_accept, p_success) -> np.ndarray:
    """`stationary` for chains that must have a unique distribution: returns
    pi alone, and raises NonUniqueStationary if any chain has two closed
    classes."""
    pi, unique = stationary(p_good, p_accept, p_success)
    if not unique.all():
        raise NonUniqueStationary(
            "chain is reducible with more than one recurrent class; "
            "stationary distribution is not unique"
        )
    return pi


def _validate_grid(values, name: str) -> list[float]:
    """A grid of probabilities in [0, 1], a number or a sequence of them, as
    a sorted list."""
    grid = number_array(f"{name} grid values", values, 0, 1).ravel()
    if not grid.size:
        raise ValueError(f"{name} grid must be non-empty")
    return sorted(grid.tolist())


def sweep_records(p_good, p_accept, p_success, pi, unique) -> np.recarray:
    """Sweep records from per-cell columns: pi has shape (cells, 4), and the
    other arguments broadcast against the cell axis."""
    records = np.recarray(len(pi), dtype=SWEEP_DTYPE)
    records["p_good"], records["p_accept"], records["p_success"] = p_good, p_accept, p_success
    records["pi"], records["status"] = pi, np.where(unique, "ok", "non_unique")
    return records


def sweep_steady_state(g_grid, a_grid, s_grid) -> np.recarray:
    """Stationary distribution over the Cartesian product of the grids.

    Returns a record array (dtype SWEEP_DTYPE) with one record per cell, in
    lexicographic (p_good, p_accept, p_success) order. Cells whose
    stationary distribution is not unique are kept, with a NaN pi and
    status 'non_unique'. All cells are solved in one `stationary` call;
    a sweep of more than MAX_SWEEP_CELLS cells is refused first.
    """
    g_grid = _validate_grid(g_grid, "p_good")
    a_grid = _validate_grid(a_grid, "p_accept")
    s_grid = _validate_grid(s_grid, "p_success")
    cells = len(g_grid) * len(a_grid) * len(s_grid)
    if cells > MAX_SWEEP_CELLS:
        raise ValueError(f"a sweep may have at most {MAX_SWEEP_CELLS} cells, got {cells}")
    g, a, s = (axis.ravel() for axis in np.meshgrid(g_grid, a_grid, s_grid, indexing="ij"))
    pi, unique = stationary(g, a, s)
    return sweep_records(g, a, s, pi, unique)


SWEEP_CSV_HEADER = "p_good,p_accept,p_success,pi0,pi1,pi2,pi3,status"


def sweep_to_csv(records: np.ndarray) -> str:
    """Sweep records as CSV (12 significant digits, empty pi fields for
    non-unique cells, trailing newline): each line is its p_good, p_accept,
    p_success, its pi values and its status."""
    columns = [records[name] for name in ("p_good", "p_accept", "p_success", "pi")]
    return grid_csv(SWEEP_CSV_HEADER.split(","), [*columns, text_fields(records["status"])])


# --- the seeded walk ----------------------------------------------------------

# Excursions per block of simulate_chain, whose few draws per block do not
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

# Cap on the steps of one walk, checked before anything is allocated.
# simulate_chain keeps a few scalars per level of its splits whatever the
# request, so the cap bounds time (2-CPU machine, whose speed varied by up
# to 2x between runs). It takes seven scalar draws, about 8 us, per block of
# _CHUNK excursions: its slowest walk at MAX_STEPS, about 20,000 blocks of
# three-step excursions (p_good and p_accept near 1, p_success near 0),
# takes about 0.2 s.
MAX_STEPS = 10**9


@dataclass(frozen=True)
class SimConfig:
    seed: int
    steps: int
    burn_in: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", integer("seed", self.seed, 0, MAX_SEED))
        object.__setattr__(self, "steps", integer("steps", self.steps, 1, MAX_STEPS))
        object.__setattr__(self, "burn_in", integer("burn_in", self.burn_in, 0, self.steps - 1))


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
    from .simulate import STREAM_CHAIN, make_rng

    g, a, s = params.p_good, params.p_accept, params.p_success
    rng = make_rng(cfg.seed, STREAM_CHAIN)
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
