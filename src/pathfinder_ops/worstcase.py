"""Worst-case (all-reject) analysis for a pool of offer candidates.

Agents split into a rejective group with representative utility u_minus < 0
and a receptive group with u_plus > 0; each is rejective independently with
probability alpha. Every variant computes one quantity,

    W(alpha) = E_xi[(alpha * p_rej(xi) + (1 - alpha) * p_rec(xi)) ** n],

where p_rej(xi) and p_rec(xi) are the logistic rejection probabilities of
the two groups after a utility shift xi shared by all agents. Only the law of
xi differs, and every law is xi = offset + theta * Z: a point mass at 0 (the
plain model) or at (1 - S) * gamma * R (system awareness, i.e. selfless
behavior), or zero-mean noise theta * Z with Z Rademacher (+/- 1, exact) or
Gaussian (Gauss-Hermite quadrature, nodes cached per rule size). `shift_law`
builds the law, and `_reject_probs` alone evaluates it.

The tipping point alpha* solves W(alpha*) = delta. Every law takes the one
Newton search on W^(1/n), which is convex and increasing in alpha (affine
for a point mass), and every root has its residual |W - delta| checked.
The partials dW/dalpha and dW/dtheta are exact expectations over the same
nodes as W, using dp/dxi = -beta * p * (1 - p). They give the sensitivity
d(alpha*)/d(theta) by the implicit function theorem, and the noise-gradient
sign map. Both noise laws are symmetric, so dW/dtheta is exactly 0 at
theta = 0.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DegenerateGradient, NoTippingPoint, integer, number, number_array, step_grid
from .fileio import BLOCK_ROWS, csv_lines, float_fields, grid_csv, text_fields

# Gradient values above -1e-12 count as zero when classifying gradient
# signs, so round-off never masquerades as a negative gradient.
NEGATIVE_GRADIENT_CUTOFF = -1e-12

DEFAULT_GH_NODES = 61
# numpy's hermgauss(370) still integrates E[cos Z] to 2e-16; from 371 nodes
# its weights overflow to zero and W would be NaN.
MAX_GH_NODES = 370

# Upper bound on the alpha x theta x node values the gradient map evaluates
# at once (2 MiB per temporary); larger grids are taken in blocks of alphas
# and thetas.
_GRADMAP_BLOCK_VALUES = 1 << 18

# Cap on the n x |U| x alpha x theta cells of one map, checked before anything
# is allocated. The map keeps 8 bytes per cell; with its three work arrays
# (6 MiB) and the per-cell dump, written in blocks, it peaks at about 16
# bytes per cell (tracemalloc, on a map of 2**20 cells). A cell costs at most
# about 8 us with its dump (Gaussian, 370 nodes, one n = 20 instance, 2-CPU
# machine), so the cap bounds memory to about 16 MiB and time to about 8 s.
MAX_GRADMAP_CELLS = 2**20

# Cap on the alpha x shift-value pairs of one W call (alphas times 1, 2 or
# gh_nodes), checked before the kernel runs. W peaks at about 8 bytes per
# alpha plus 16 per pair (tracemalloc), so the cap bounds memory to about
# 130 MiB with many nodes and 190 MiB with one.
MAX_ALPHA_NODES = 2**23


class NoiseKind(enum.Enum):
    GAUSSIAN = "gaussian"
    RADEMACHER = "rademacher"


@dataclass(frozen=True)
class WorstCaseScenario:
    """Group-level inputs: n agents, representative utilities, sensitivity,
    and the acceptable all-reject probability delta."""

    n: int
    u_minus: float
    u_plus: float
    beta: float
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "n", integer("n", self.n, 1))
        object.__setattr__(self, "u_minus", number("u_minus", self.u_minus, hi=0, hi_open=True))
        object.__setattr__(self, "u_plus", number("u_plus", self.u_plus, 0, lo_open=True))
        object.__setattr__(self, "beta", number("beta", self.beta, 0, lo_open=True))
        delta = number("delta", self.delta, 0, 1, lo_open=True, hi_open=True)
        object.__setattr__(self, "delta", delta)


@dataclass(frozen=True)
class SocialParams:
    """Selfishness S in [0, 1], system sensitivity gamma > 0, and the
    estimated overall rejection rate R in [0, 1]."""

    s: float
    gamma: float
    r: float

    def __post_init__(self):
        object.__setattr__(self, "s", number("s", self.s, 0, 1))
        object.__setattr__(self, "gamma", number("gamma", self.gamma, 0, lo_open=True))
        object.__setattr__(self, "r", number("r", self.r, 0, 1))


@dataclass(frozen=True)
class NoiseSpec:
    """Shared zero-mean utility noise: Gaussian with std theta, or
    Rademacher taking +/- theta with equal probability. gh_nodes (1 to
    MAX_GH_NODES) sets the Gauss-Hermite rule used for the Gaussian
    expectation."""

    kind: NoiseKind
    theta: float
    gh_nodes: int = DEFAULT_GH_NODES

    def __post_init__(self):
        if not isinstance(self.kind, NoiseKind):
            raise ValueError(f"kind must be a NoiseKind, got {self.kind!r}")
        object.__setattr__(self, "theta", number("theta", self.theta, 0))
        object.__setattr__(self, "gh_nodes", integer("gh_nodes", self.gh_nodes, 1, MAX_GH_NODES))


# --- the shifted-mixture kernel ---------------------------------------------


def _logistic(x):
    """Elementwise 1 / (1 + exp(-x)). Both branches use exp(-|x|), so the
    result never overflows and keeps its relative accuracy in both tails."""
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


class ShiftLaw(NamedTuple):
    """Law of the shared utility shift xi = offset + theta * Z, where Z takes
    the values `nodes` with probabilities `weights`, so d(xi)/d(theta) = Z.
    `theta` is a float, or a (T, 1) array of T laws (one per theta in the
    gradient map) whose axis leads the node axis."""

    offset: float
    theta: float | np.ndarray
    nodes: np.ndarray
    weights: np.ndarray


def _read_only(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


_POINT_NODES = (_read_only([0.0]), _read_only([1.0]))
_RADEMACHER_NODES = (_read_only([1.0, -1.0]), _read_only([0.5, 0.5]))


@functools.lru_cache(maxsize=None)
def gauss_hermite_nodes(gh_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and probability weights of the gh_nodes-point rule for E[f(Z)],
    Z ~ N(0, 1) (Golub & Welsch 1969). Cached per rule size; the arrays are
    read-only."""
    nodes, weights = np.polynomial.hermite.hermgauss(gh_nodes)
    return _read_only(math.sqrt(2.0) * nodes), _read_only(weights / weights.sum())


def shift_law(social: SocialParams | None = None, noise: NoiseSpec | None = None) -> ShiftLaw:
    """The law of xi: offset (1 - S) * gamma * R with system awareness (else
    0), plus theta * Z with noise. Without noise, or at theta = 0, xi is the
    point mass at the offset, so noisy results reduce exactly to the plain
    ones."""
    offset = 0.0 if social is None else (1.0 - social.s) * social.gamma * social.r
    if noise is None or noise.theta == 0.0:
        return ShiftLaw(offset, 0.0, *_POINT_NODES)
    if noise.kind is NoiseKind.RADEMACHER:
        return ShiftLaw(offset, noise.theta, *_RADEMACHER_NODES)
    return ShiftLaw(offset, noise.theta, *gauss_hermite_nodes(noise.gh_nodes))


def _reject_probs(scn: WorstCaseScenario, law: ShiftLaw):
    """(p_rej, p_rec) per value of xi, the logistic of -beta * (u + xi),
    both groups in one array program: the utilities lead an axis of two
    that broadcasts against theta * Z. Where theta * Z overflows, the
    argument is -beta * (u + offset) - (beta * theta) * Z instead, which a
    tiny beta keeps finite. An argument that still overflows is +/-inf,
    which `_logistic` maps to the exact 0 or 1."""
    with np.errstate(over="ignore"):
        scaled = law.theta * law.nodes
        u = np.array([scn.u_minus, scn.u_plus]).reshape((2,) + (1,) * scaled.ndim)
        x = -scn.beta * (u + (law.offset + scaled))
        if not np.isfinite(scaled).all():
            with np.errstate(invalid="ignore"):
                split = -scn.beta * (u + law.offset) - (scn.beta * law.theta) * law.nodes
            # Where both terms overflow (inf - inf), x has the right sign.
            x = np.where(np.isfinite(scaled) | np.isnan(split), x, split)
        return tuple(_logistic(x))


def _mixture_powers(n: int, alphas, probs) -> tuple[np.ndarray, np.ndarray]:
    """(m, m ** n) for the mixture m = alpha * p_rej + (1 - alpha) * p_rec per
    shift value, for alphas of any shape broadcast against the shift axis (the
    law's leading axes follow the alpha axes)."""
    p_rej, p_rec = probs
    a = np.asarray(alphas, dtype=float)[..., None]
    m = a * p_rej + (1.0 - a) * p_rec
    return m, m**n


def _mixture_w(n: int, alphas, probs, weights) -> np.ndarray:
    """W = E[m^n], shaped like the alphas followed by the law's leading axes."""
    return _mixture_powers(n, alphas, probs)[1] @ weights


def _mixture(scn: WorstCaseScenario, a: np.ndarray, law: ShiftLaw, m, spread):
    """Step 1 of the partials, which n plays no part in: the mixture m =
    alpha * p_rej + (1 - alpha) * p_rec and the spread alpha * q_rej +
    (1 - alpha) * q_rec (q = p * (1 - p)) for alphas `a` (with a trailing
    unit axis) against the law's values, written to the work arrays m and
    spread. Returns (p_rej, p_rec)."""
    p_rej, p_rec = _reject_probs(scn, law)
    np.multiply(a, p_rej, out=m)
    np.multiply(1.0 - a, p_rec, out=spread)
    np.add(m, spread, out=m)
    q_rej, q_rec = p_rej * (1.0 - p_rej), p_rec * (1.0 - p_rec)
    np.multiply(a, q_rej - q_rec, out=spread)
    np.add(q_rec, spread, out=spread)
    return p_rej, p_rec


def _zero_below(k: int) -> float:
    """A t with m ** k certainly +0 for every m < t, or 0.0 (no such cut).
    For k >= 3, t = 2^(-1080/k): t ** k is about 2^-1080, far under the
    2^-1075 below which a power rounds to +0. The cut is kept only where the
    same numpy power gives t ** k == 0: beyond about k = 10**16, t rounds so
    near 1 that this can fail (it does at k = 2**62), and then there is no
    cut."""
    if k < 3:
        return 0.0
    t = 2.0 ** (-1080 / k)
    return t if np.power(np.array([t]), k)[0] == 0.0 else 0.0


def _power(m, k: int, out) -> None:
    """out = m ** k, bit for bit. pow costs about 20 times more where the
    result underflows, so the values whose power is certainly +0 are set to
    0 first: pow(+0, k) is +0 and cheap."""
    np.copyto(out, m)
    if cut := _zero_below(k):
        np.copyto(out, 0.0, where=out < cut)
    # `**=` picks the loop `m ** k` picks (np.square for an exponent of 2,
    # np.power otherwise), so the bits match.
    out **= k


def _partials(n: int, beta: float, m, spread, law: ShiftLaw, x, probs=None):
    """Step 2 of the partials, for n agents: (dW/dalpha, or None without
    step 1's `probs`, and dW/dtheta) from step 1's m and spread. x is a work
    array of their shape, overwritten here. Each step is the numpy operation
    an unbuffered expression would do, in the same order, so the bits match
    a fresh array per step."""
    _power(m, n - 1, x)
    d_alpha = None
    if probs is not None:
        p_rej, p_rec = probs
        d_alpha = n * (np.multiply(x, p_rej - p_rec) @ law.weights)
    np.multiply(x, spread, out=x)
    slope = x @ (law.nodes * law.weights)
    scale = -beta * n
    # beta * n can overflow where beta * (n * slope) does not.
    d_theta = scale * slope if math.isfinite(scale) else -beta * (n * slope)
    return d_alpha, d_theta


def mixture_partials(
    scn: WorstCaseScenario, alphas, law: ShiftLaw
) -> tuple[np.ndarray, np.ndarray]:
    """Exact (dW/dalpha, dW/dtheta), each shaped like W at `alphas`:

        dW/dalpha = E[n m^(n-1) (p_rej - p_rec)]
        dW/dtheta = E[dxi/dtheta * n m^(n-1) * dm/dxi],
        dm/dxi = -beta * [alpha p_rej (1 - p_rej) + (1 - alpha) p_rec (1 - p_rec)].
    """
    a = np.asarray(alphas, dtype=float)[..., None]
    shape = np.broadcast_shapes(a.shape, np.shape(law.theta), law.nodes.shape)
    m, spread, x = np.empty((3, *shape))
    probs = _mixture(scn, a, law, m, spread)
    return _partials(scn.n, scn.beta, m, spread, law, x, probs)


# --- public analyses ----------------------------------------------------------


def _w(scn: WorstCaseScenario, alpha, law: ShiftLaw):
    alphas = number_array("alpha", alpha, 0, 1)
    if alphas.size * law.weights.size > MAX_ALPHA_NODES:
        pairs = f"{alphas.size} x {law.weights.size}"
        raise ValueError(f"W takes at most {MAX_ALPHA_NODES} alpha x shift pairs, got {pairs}")
    w = _mixture_w(scn.n, alphas, _reject_probs(scn, law), law.weights)
    return float(w) if w.ndim == 0 else w


def group_reject_probs(scn: WorstCaseScenario) -> tuple[float, float]:
    """(p_rejective, p_receptive): logistic rejection probabilities of the
    two groups. p_rejective > 0.5 > p_receptive since u_minus < 0 < u_plus."""
    p_rej, p_rec = _reject_probs(scn, shift_law())
    return float(p_rej[0]), float(p_rec[0])


def group_worst_case_prob(n: int, alpha: float, probs: tuple[float, float]) -> float:
    """worst_case_prob at one alpha from the (p_rejective, p_receptive) pair
    of group_reject_probs, for a caller that holds it already: the same
    float operations, so the same bits."""
    p_rej, p_rec = probs
    # The power underflows to 0 for large n, as mixture_batch's rounds allow.
    with np.errstate(under="ignore"):
        w = _mixture_w(n, alpha, (np.array([p_rej]), np.array([p_rec])), _POINT_NODES[1])
    return float(w)


def worst_case_prob(scn: WorstCaseScenario, alpha):
    """Probability that all n agents reject, for rejective fraction alpha
    (a float, or an array of them)."""
    return _w(scn, alpha, shift_law())


def social_worst_case_prob(scn: WorstCaseScenario, soc: SocialParams, alpha):
    return _w(scn, alpha, shift_law(social=soc))


def noisy_worst_case_prob(scn: WorstCaseScenario, noise: NoiseSpec, alpha):
    """All-reject probability under a single noise realization shared by all
    agents, averaged over that realization. theta = 0 reduces exactly to
    worst_case_prob."""
    return _w(scn, alpha, shift_law(noise=noise))


def _newton_step(n: int, w: float, slope: float, delta: float) -> float:
    """Newton's step -g/g' on g(alpha) = W^(1/n) - delta^(1/n) at a point
    with W = w and dW/dalpha = slope, written as n W expm1(log(delta/W)/n)
    / W' so that it keeps its precision where W^(1/n) is near 1 (large n).
    NaN where the step is undefined or overflows (W = 0 or W' = 0)."""
    try:
        return n * w * math.expm1(math.log(delta / w) / n) / slope
    except ArithmeticError:
        return math.nan


def _tipping_point(scn: WorstCaseScenario, law: ShiftLaw) -> float:
    """alpha* with W(alpha*) = delta under `law`, or NoTippingPoint.

    W^(1/n) is the L^n norm of the mixture, which is affine in alpha with
    p_rej >= p_rec at every shift, so it is convex and increasing, and
    Newton's method on W^(1/n) - delta^(1/n) started at alpha = 1 descends
    monotonically onto the root. For a point mass W^(1/n) is affine, so the
    first step lands on the root and the search checks it like any other.
    A delta strictly inside (W(0), W(1)) is always searched. Otherwise
    alpha* is 0 where |W(0) - delta| <= 1e-10 (a flat W within 1e-10 of
    delta included), 1 where |W(1) - delta| <= 1e-10, and NoTippingPoint
    where delta lies further outside [W(0), W(1)]. Each step narrows the
    bracket [lo, hi]; a step that leaves it falls back to the midpoint, and
    one that rounds to no move to the adjacent double. The search stops at
    |W - delta| <= 1e-11, or at a bracket of adjacent doubles, whose end
    with the smaller |W - delta| is the root; ArithmeticError if that end
    misses |W - delta| <= 1e-10 (W too steep for double precision). The
    1e-11 target is absolute, so for delta near 1e-11 a noisy root fixes W
    only to within a factor of about 2."""
    probs = _reject_probs(scn, law)  # alpha-free: computed once
    n, delta, weights = scn.n, scn.delta, law.weights
    gap = probs[0] - probs[1]

    def w(alpha: float) -> tuple[float, float]:
        """(W, dW/dalpha) at alpha: dW/dalpha = n E[m^(n-1) (p_rej - p_rec)],
        with m^(n-1) taken from W's power array as m^n / m (0 where m = 0)."""
        m, power = _mixture_powers(n, alpha, probs)
        below = np.divide(power, m, out=np.zeros_like(m), where=m > 0.0)
        return float(power @ weights), n * float((below * gap) @ weights)

    w_lo, (w_hi, slope) = float(_mixture_w(n, 0.0, probs, weights)), w(1.0)
    if not w_lo < delta < w_hi:
        if abs(w_lo - delta) <= 1e-10:
            return 0.0
        if abs(w_hi - delta) <= 1e-10:
            return 1.0
        raise NoTippingPoint(
            f"delta = {delta:.6g} outside [W(0) = {w_lo:.6g}, W(1) = {w_hi:.6g}]"
        )
    lo, hi = 0.0, 1.0
    alpha, w_alpha = hi, w_hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        guess = alpha + _newton_step(n, w_alpha, slope, delta)
        if guess == alpha:
            guess = math.nextafter(alpha, lo if w_alpha > delta else hi)
        alpha = guess if lo < guess < hi else mid
        w_alpha, slope = w(alpha)
        if abs(w_alpha - delta) <= 1e-11:
            return alpha
        if w_alpha < delta:
            lo, w_lo = alpha, w_alpha
        else:
            hi, w_hi = alpha, w_alpha
    residual, alpha = min((abs(w_lo - delta), lo), (abs(w_hi - delta), hi))
    if not residual <= 1e-10:
        raise ArithmeticError(
            f"root search stopped at alpha = {alpha!r} with |W - delta| = "
            f"{residual:.3e} above the 1e-10 residual target"
        )
    return alpha


def tipping_point(scn: WorstCaseScenario) -> float:
    """alpha* with W(alpha*) = delta; raises NoTippingPoint when delta is
    unreachable."""
    return _tipping_point(scn, shift_law())


def social_tipping_point(scn: WorstCaseScenario, soc: SocialParams) -> float:
    """Tipping point under the system-awareness adjustment."""
    return _tipping_point(scn, shift_law(social=soc))


def noisy_tipping_point(scn: WorstCaseScenario, noise: NoiseSpec) -> float:
    """Tipping point under shared noise; at theta = 0 exactly tipping_point."""
    return _tipping_point(scn, shift_law(noise=noise))


def tipping_point_gradient(scn: WorstCaseScenario, noise: NoiseSpec) -> float:
    """d(alpha*)/d(theta) at the current noise scale, via the implicit
    function theorem: -(dW/dtheta) / (dW/dalpha) at (alpha*, theta)."""
    alpha_star = noisy_tipping_point(scn, noise)
    d_alpha, d_theta = mixture_partials(scn, alpha_star, shift_law(noise=noise))
    if abs(d_alpha) < 1e-14:
        raise DegenerateGradient(
            f"dW/dalpha = {float(d_alpha):.3e} at the tipping point; implicit derivative undefined"
        )
    return float(-d_theta / d_alpha)


@dataclass(frozen=True, eq=False)
class GradientSignMap:
    """The noise-gradient sign map over one grid. `dw_dtheta` has shape
    (n, |U|, theta, alpha): entry [i, j, k, l] is dW/dtheta for n_values[i],
    u_abs_values[j], thetas[k] and alphas[l]. `fraction_negative` has shape
    (n, |U|): the share of that (n, |U|) instance's cells below -1e-12.
    `n_values` are Python ints, as n may exceed int64."""

    n_values: tuple[int, ...]
    u_abs_values: np.ndarray
    noise_kind: NoiseKind
    alphas: np.ndarray
    thetas: np.ndarray
    dw_dtheta: np.ndarray
    fraction_negative: np.ndarray


DEFAULT_ALPHA_GRID = tuple(step_grid(0.0, 1.0, 0.02, 51))
DEFAULT_THETA_GRID = tuple(step_grid(0.0, 10.0, 0.2, 51))
DEFAULT_N_VALUES = (2, 5, 10, 20)
DEFAULT_U_ABS_VALUES = (1.0, 2.0, 4.0, 8.0)


def gradient_sign_map(
    n_values=DEFAULT_N_VALUES,
    u_abs_values=DEFAULT_U_ABS_VALUES,
    noise_kind: NoiseKind = NoiseKind.RADEMACHER,
    alpha_grid=DEFAULT_ALPHA_GRID,
    theta_grid=DEFAULT_THETA_GRID,
    beta: float = 1.0,
    gh_nodes: int = DEFAULT_GH_NODES,
) -> GradientSignMap:
    """For each (n, |U|), the fraction of (alpha, theta) cells where the
    exact dW/dtheta < -1e-12. It is exactly 0 at theta = 0.

    Scenarios use u_plus = |U|, u_minus = -|U| and a common beta. Each |U|
    is one alpha x theta x node array program, taken in blocks of at most
    _GRADMAP_BLOCK_VALUES values: the mixture and the spread of a block are
    formed once and serve every n. Three work arrays of that size are
    allocated once and reused by every block, and dW/dalpha is not
    computed. The map keeps every cell's dW/dtheta in one array (8 bytes a
    cell) and the grids once. The grids, the scenarios and the
    MAX_GRADMAP_CELLS cap are checked before any kernel runs.
    """
    # A grid may be one number. "+ 0.0" turns -0.0 into 0.0, so each grid
    # value has one printed form.
    grids = (
        np.asarray(n_values, dtype=object).ravel(),
        number_array("u_abs values", u_abs_values, 0, lo_open=True).ravel(),
        number_array("alpha", alpha_grid, 0, 1).ravel() + 0.0,
        number_array("theta grid values", theta_grid, 0).ravel() + 0.0,
    )
    if not all(grid.size for grid in grids):
        raise ValueError("n_values, u_abs_values, alpha_grid and theta_grid must be non-empty")
    n_values, u_abs_values, alphas, thetas = grids
    cells = n_values.size * u_abs_values.size * alphas.size * thetas.size
    if cells > MAX_GRADMAP_CELLS:
        raise ValueError(f"a gradient map may have at most {MAX_GRADMAP_CELLS} cells, got {cells}")
    n_values = tuple(integer("n", n, 1) for n in n_values)
    # delta plays no role in the gradient map, and n none in step 1.
    groups = [WorstCaseScenario(1, -u, u, beta, 0.5) for u in u_abs_values]

    unit = shift_law(noise=NoiseSpec(kind=noise_kind, theta=1.0, gh_nodes=gh_nodes))
    nodes, weights = unit.nodes, unit.weights
    a_step = max(1, _GRADMAP_BLOCK_VALUES // nodes.size)
    t_step = max(1, _GRADMAP_BLOCK_VALUES // (min(alphas.size, a_step) * nodes.size))
    a_blocks = [slice(i, i + a_step) for i in range(0, alphas.size, a_step)]
    t_blocks = [slice(i, i + t_step) for i in range(0, thetas.size, t_step)]
    laws = [ShiftLaw(0.0, thetas[t, None], nodes, weights) for t in t_blocks]
    # Three work arrays (m, the spread and the power), as large as the
    # largest block, serve every block.
    work = np.empty((3, min(alphas.size, a_step) * min(thetas.size, t_step) * nodes.size))

    dw_dtheta = np.empty((len(n_values), u_abs_values.size, thetas.size, alphas.size))
    for j, scn in enumerate(groups):
        for a in a_blocks:
            for t, law in zip(t_blocks, laws):
                shape = (alphas[a].size, law.theta.size, nodes.size)
                m, spread, x = (w[: math.prod(shape)].reshape(shape) for w in work)
                _mixture(scn, alphas[a, None, None], law, m, spread)
                for i, n in enumerate(n_values):
                    # (alpha, theta), as the kernel's blocks are laid out
                    dw_dtheta[i, j].T[a, t] = _partials(n, scn.beta, m, spread, law, x)[1]
    # E[Z] = 0 for both noise laws: the partial at theta = 0 is exactly 0,
    # where the quadrature sum would leave rounding.
    dw_dtheta[:, :, thetas == 0.0] = 0.0
    negative = np.count_nonzero(dw_dtheta < NEGATIVE_GRADIENT_CUTOFF, axis=(2, 3))
    fractions = negative / (thetas.size * alphas.size)
    return GradientSignMap(n_values, u_abs_values, noise_kind, alphas, thetas, dw_dtheta, fractions)


GRADMAP_CSV_HEADER = "n,u_abs,noise_kind,fraction_negative"
GRADMAP_CELLS_CSV_HEADER = "n,u_abs,noise_kind,alpha,theta,dw_dtheta"


def _instance_fields(gmap: GradientSignMap) -> np.ndarray:
    """The fields "n,u_abs,noise_kind" of each (n, |U|) instance, n-major,
    as one text field a row, with u_abs as f"{u:.12g}", the text of every
    float in a table (NaN an empty field). The n values print through
    str(), never through a numpy array, which would turn an int64 and an n
    of 2**63 into floats."""
    u_texts = ["" if u != u else f"{u:.12g}" for u in gmap.u_abs_values.tolist()]
    kind = gmap.noise_kind.value
    return text_fields([f"{n},{u},{kind}" for n in gmap.n_values for u in u_texts])


def gradient_sign_map_to_csv(gmap: GradientSignMap) -> str:
    """One line per (n, |U|) instance, n-major."""
    fractions = gmap.fraction_negative.reshape(-1)
    return grid_csv(GRADMAP_CSV_HEADER.split(","), [_instance_fields(gmap), fractions])


def gradient_cells_to_csv(gmap: GradientSignMap) -> Iterator[str]:
    """Per-cell CSV: each instance's cells, theta-major, under its n, |U|
    and noise kind. It is the header line, then text blocks of
    `BLOCK_ROWS` lines (the last may be shorter, and a block may span
    instances), each made as it is taken, so the map must not change until
    the last block is.

    The instance, alpha and theta fields are made once per map and
    gathered for each block's lines, so no text is kept per cell; only
    dW/dtheta is formatted cell by cell, with an empty field for NaN."""
    keys = _instance_fields(gmap)
    alphas, thetas = float_fields(gmap.alphas), float_fields(gmap.thetas)
    width = len(alphas)
    cells = width * len(thetas)
    values = gmap.dw_dtheta.reshape(-1)

    def blocks() -> Iterator[str]:
        yield GRADMAP_CELLS_CSV_HEADER + "\n"
        for start in range(0, values.size, BLOCK_ROWS):
            lines = np.arange(start, min(start + BLOCK_ROWS, values.size))
            cell = lines % cells
            yield csv_lines([
                keys.take(lines // cells, axis=0), alphas.take(cell % width, axis=0),
                thetas.take(cell // width, axis=0), float_fields(values[start : start + BLOCK_ROWS]),
            ])

    return blocks()
