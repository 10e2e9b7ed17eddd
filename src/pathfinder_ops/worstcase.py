"""Worst-case (all-reject) analysis for a pool of offer candidates.

Agents split into a rejective group with representative utility u_minus < 0
and a receptive group with u_plus > 0; each is rejective independently with
probability alpha. Every variant computes one quantity,

    W(alpha) = E_xi[(alpha * p_rej(xi) + (1 - alpha) * p_rec(xi)) ** n],

where p_rej(xi) and p_rec(xi) are the logistic rejection probabilities of
the two groups after a utility shift xi shared by all agents. Only the law of
xi differs: a point mass at 0 (the plain model), a point mass at
(1 - S) * gamma * R (system awareness, i.e. selfless behavior), or zero-mean
environmental noise of scale theta, either Rademacher (+/- theta, exact) or
Gaussian (Gauss-Hermite quadrature, nodes cached per rule size).

The tipping point alpha* solves W(alpha*) = delta: in closed form for a point
mass (noise with theta = 0 included), by bisection otherwise (W is strictly
increasing in alpha). The partials dW/dalpha and dW/dtheta are exact
expectations over the same nodes as W, using dp/dxi = -beta * p * (1 - p).
They give the sensitivity d(alpha*)/d(theta) by the implicit function
theorem, and the noise-gradient sign map. Both noise laws are symmetric, so
dW/dtheta is exactly 0 at theta = 0.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateGradient, NoTippingPoint, integer, number, number_array
from .fileio import column_fields, grid_csv

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
# is allocated. The map keeps 8 bytes per cell, the per-cell dump peaks at
# about 210 bytes per cell (tracemalloc, on a map of 2**20 cells), and a cell
# costs at most about 12 us with its dump (Gaussian, 370 nodes, 2-CPU
# machine), so the cap bounds memory to about 220 MiB and time to about 12 s.
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
    """Discrete law of the shared utility shift: xi takes the values on the
    last axis of `shifts` with probabilities `weights`. `slopes` holds
    d(xi)/d(theta) per value: the unit nodes of a noise law scaled by theta,
    zero for a point mass. Leading axes of `shifts` hold further laws (one
    per theta in the gradient map)."""

    shifts: np.ndarray
    slopes: np.ndarray
    weights: np.ndarray


def _read_only(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


_ONE = _read_only([1.0])
_ZERO = _read_only([0.0])
_RADEMACHER_NODES = (_read_only([1.0, -1.0]), _read_only([0.5, 0.5]))


@functools.lru_cache(maxsize=None)
def gauss_hermite_nodes(gh_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and probability weights of the gh_nodes-point rule for E[f(Z)],
    Z ~ N(0, 1) (Golub & Welsch 1969). Cached per rule size; the arrays are
    read-only."""
    nodes, weights = np.polynomial.hermite.hermgauss(gh_nodes)
    return _read_only(math.sqrt(2.0) * nodes), _read_only(weights / weights.sum())


def _unit_nodes(noise: NoiseSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the noise law at theta = 1."""
    if noise.kind is NoiseKind.RADEMACHER:
        return _RADEMACHER_NODES
    return gauss_hermite_nodes(noise.gh_nodes)


def _point_law(shift: float = 0.0) -> ShiftLaw:
    return ShiftLaw(np.array([shift]), _ZERO, _ONE)


def _social_shift(soc: SocialParams) -> float:
    """The system-awareness utility term (1 - S) * gamma * R."""
    return (1.0 - soc.s) * soc.gamma * soc.r


def noise_law(noise: NoiseSpec) -> ShiftLaw:
    """xi = theta * Z. At theta = 0 this is the point mass at 0, so noisy
    results reduce exactly to the plain ones."""
    if noise.theta == 0.0:
        return _point_law()
    nodes, weights = _unit_nodes(noise)
    with np.errstate(over="ignore"):  # theta * node may overflow to +/-inf
        return ShiftLaw(noise.theta * nodes, nodes, weights)


def _reject_probs(scn: WorstCaseScenario, shifts):
    """(p_rej, p_rec) per shift. A logistic argument that overflows is
    +/-inf, which `_logistic` maps to the exact 0 or 1."""
    with np.errstate(over="ignore"):
        x_rej, x_rec = -scn.beta * (scn.u_minus + shifts), -scn.beta * (scn.u_plus + shifts)
    return _logistic(x_rej), _logistic(x_rec)


def _mixture_w(n: int, alphas, probs, weights) -> np.ndarray:
    """E[m^n] with the mixture m = alpha * p_rej + (1 - alpha) * p_rec per
    shift value, alpha broadcast against the shift axis."""
    p_rej, p_rec = probs
    a = np.asarray(alphas, dtype=float)[..., None]
    return ((a * p_rej + (1.0 - a) * p_rec) ** n) @ weights


def mixture_w(scn: WorstCaseScenario, alphas, law: ShiftLaw) -> np.ndarray:
    """W = E[m^n] for each alpha in `alphas` (any shape; the law's leading
    axes follow the alpha axes in the result)."""
    return _mixture_w(scn.n, alphas, _reject_probs(scn, law.shifts), law.weights)


def _partials(scn: WorstCaseScenario, a: np.ndarray, law: ShiftLaw, x, y, with_alpha: bool):
    """(dW/dalpha or None, dW/dtheta) for alphas `a` (with a trailing unit
    axis) against the law's shifts. x and y are work arrays of the shape
    they broadcast to, overwritten here. Each step is the numpy operation an
    unbuffered expression would do, in the same order, written to x or y, so
    the bits match a fresh array per step."""
    p_rej, p_rec = _reject_probs(scn, law.shifts)
    np.multiply(a, p_rej, out=x)
    np.multiply(1.0 - a, p_rec, out=y)
    np.add(x, y, out=x)  # m
    # `**=` picks the loop `m ** (n - 1)` picks (np.square for an exponent
    # of 2, np.power otherwise), so the bits match.
    x **= scn.n - 1
    d_alpha = None
    if with_alpha:
        np.multiply(x, p_rej - p_rec, out=y)
        d_alpha = scn.n * (y @ law.weights)
    q_rej, q_rec = p_rej * (1.0 - p_rej), p_rec * (1.0 - p_rec)
    np.multiply(a, q_rej - q_rec, out=y)
    np.add(q_rec, y, out=y)  # the spread
    np.multiply(x, y, out=y)
    slope = y @ (law.slopes * law.weights)
    scale = -scn.beta * scn.n
    # beta * n can overflow where beta * (n * slope) does not.
    d_theta = scale * slope if math.isfinite(scale) else -scn.beta * (scn.n * slope)
    return d_alpha, d_theta


def mixture_partials(
    scn: WorstCaseScenario, alphas, law: ShiftLaw
) -> tuple[np.ndarray, np.ndarray]:
    """Exact (dW/dalpha, dW/dtheta), shaped like mixture_w's result:

        dW/dalpha = E[n m^(n-1) (p_rej - p_rec)]
        dW/dtheta = E[dxi/dtheta * n m^(n-1) * dm/dxi],
        dm/dxi = -beta * [alpha p_rej (1 - p_rej) + (1 - alpha) p_rec (1 - p_rec)].
    """
    a = np.asarray(alphas, dtype=float)[..., None]
    shape = np.broadcast_shapes(a.shape, np.shape(law.shifts))
    return _partials(scn, a, law, np.empty(shape), np.empty(shape), with_alpha=True)


# --- public analyses ----------------------------------------------------------


def _w(scn: WorstCaseScenario, alpha, law: ShiftLaw):
    alphas = number_array("alpha", alpha, 0, 1)
    if alphas.size * law.weights.size > MAX_ALPHA_NODES:
        pairs = f"{alphas.size} x {law.weights.size}"
        raise ValueError(f"W takes at most {MAX_ALPHA_NODES} alpha x shift pairs, got {pairs}")
    w = mixture_w(scn, alphas, law)
    return float(w) if w.ndim == 0 else w


def group_reject_probs(scn: WorstCaseScenario) -> tuple[float, float]:
    """(p_rejective, p_receptive): logistic rejection probabilities of the
    two groups. p_rejective > 0.5 > p_receptive since u_minus < 0 < u_plus."""
    p_rej, p_rec = _reject_probs(scn, 0.0)
    return float(p_rej), float(p_rec)


def social_reject_probs(scn: WorstCaseScenario, soc: SocialParams) -> tuple[float, float]:
    """Group rejection probabilities with the system-awareness utility term
    (1 - S) * gamma * R added to both representative utilities."""
    p_rej, p_rec = _reject_probs(scn, _social_shift(soc))
    return float(p_rej), float(p_rec)


def worst_case_prob(scn: WorstCaseScenario, alpha):
    """Probability that all n agents reject, for rejective fraction alpha
    (a float, or an array of them)."""
    return _w(scn, alpha, _point_law())


def social_worst_case_prob(scn: WorstCaseScenario, soc: SocialParams, alpha):
    return _w(scn, alpha, _point_law(_social_shift(soc)))


def noisy_worst_case_prob(scn: WorstCaseScenario, noise: NoiseSpec, alpha):
    """All-reject probability under a single noise realization shared by all
    agents, averaged over that realization. theta = 0 reduces exactly to
    worst_case_prob."""
    return _w(scn, alpha, noise_law(noise))


def _tipping_point(scn: WorstCaseScenario, law: ShiftLaw) -> float:
    """alpha* with W(alpha*) = delta under `law`, or NoTippingPoint. For a
    one-node law W^(1/n) is linear in alpha, so alpha* is in closed form;
    otherwise bisection, as W is strictly increasing in alpha (the integrand
    is, for every shift). Bisection stops at |W - delta| <= 1e-11 or when
    the bracket collapses below 1e-15; ArithmeticError if the last midpoint
    then misses |W - delta| <= 1e-10 (W too steep for double precision)."""
    probs = _reject_probs(scn, law.shifts)  # alpha-free: computed once
    delta = scn.delta
    if law.weights.size == 1:
        p_rej, p_rec = float(probs[0][0]), float(probs[1][0])
        root = delta ** (1.0 / scn.n)
        if root < p_rec - 1e-12 or root > p_rej + 1e-12:
            raise NoTippingPoint(
                f"delta^(1/n) = {root:.6g} outside [{p_rec:.6g}, {p_rej:.6g}]; "
                "no mixture reaches the threshold"
            )
        return min(max((root - p_rec) / (p_rej - p_rec), 0.0), 1.0)

    def w(alpha: float) -> float:
        return float(_mixture_w(scn.n, alpha, probs, law.weights))

    w0, w1 = w(0.0), w(1.0)
    if not w0 - 1e-12 <= delta <= w1 + 1e-12:
        raise NoTippingPoint(
            f"delta = {delta:.6g} outside [W(0) = {w0:.6g}, W(1) = {w1:.6g}]"
        )
    if abs(w0 - delta) <= 1e-10:
        return 0.0
    if abs(w1 - delta) <= 1e-10:
        return 1.0
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        w_mid = w(mid)
        if abs(w_mid - delta) <= 1e-11 or hi - lo < 1e-15:
            break
        if w_mid < delta:
            lo = mid
        else:
            hi = mid
    if not abs(w_mid - delta) <= 1e-10:
        raise ArithmeticError(
            f"bisection stopped at alpha = {mid!r} with |W - delta| = "
            f"{abs(w_mid - delta):.3e} above the 1e-10 residual target"
        )
    return mid


def tipping_point(scn: WorstCaseScenario) -> float:
    """Closed-form alpha* with W(alpha*) = delta; raises NoTippingPoint when
    delta is unreachable."""
    return _tipping_point(scn, _point_law())


def social_tipping_point(scn: WorstCaseScenario, soc: SocialParams) -> float:
    """Closed-form tipping point under the system-awareness adjustment."""
    return _tipping_point(scn, _point_law(_social_shift(soc)))


def noisy_tipping_point(scn: WorstCaseScenario, noise: NoiseSpec) -> float:
    """Tipping point under shared noise; at theta = 0 exactly tipping_point."""
    return _tipping_point(scn, noise_law(noise))


def tipping_point_gradient(scn: WorstCaseScenario, noise: NoiseSpec) -> float:
    """d(alpha*)/d(theta) at the current noise scale, via the implicit
    function theorem: -(dW/dtheta) / (dW/dalpha) at (alpha*, theta)."""
    alpha_star = noisy_tipping_point(scn, noise)
    d_alpha, d_theta = mixture_partials(scn, alpha_star, noise_law(noise))
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


DEFAULT_ALPHA_GRID = tuple(round(0.02 * i, 10) for i in range(51))
DEFAULT_THETA_GRID = tuple(round(0.2 * i, 10) for i in range(51))
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

    Scenarios use u_plus = |U|, u_minus = -|U| and a common beta. Each
    (n, |U|) instance is one alpha x theta x node array program, taken in
    blocks of at most _GRADMAP_BLOCK_VALUES values; two work arrays of that
    size are allocated once and reused by every block of every instance, and
    dW/dalpha is not computed. The map keeps every cell's dW/dtheta in one
    array (8 bytes a cell) and the grids once. The grids, the scenarios and
    the MAX_GRADMAP_CELLS cap are checked before any kernel runs.
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
    # delta plays no role in the gradient map; any interior value works.
    scenarios = [WorstCaseScenario(n, -u, u, beta, 0.5) for n in n_values for u in u_abs_values]

    nodes, weights = _unit_nodes(NoiseSpec(kind=noise_kind, theta=0.0, gh_nodes=gh_nodes))
    a_step = max(1, _GRADMAP_BLOCK_VALUES // nodes.size)
    t_step = max(1, _GRADMAP_BLOCK_VALUES // (min(alphas.size, a_step) * nodes.size))
    a_blocks = [slice(i, i + a_step) for i in range(0, alphas.size, a_step)]
    t_blocks = [slice(i, i + t_step) for i in range(0, thetas.size, t_step)]
    with np.errstate(over="ignore"):  # theta * node may overflow to +/-inf
        laws = [ShiftLaw(thetas[t, None] * nodes, nodes, weights) for t in t_blocks]
    # Two work arrays, as large as the largest block, serve every block.
    work = np.empty((2, min(alphas.size, a_step) * min(thetas.size, t_step) * nodes.size))

    dw_dtheta = np.empty((len(n_values), u_abs_values.size, thetas.size, alphas.size))
    for scn, grad in zip(scenarios, dw_dtheta.reshape(-1, thetas.size, alphas.size)):
        grad = grad.T  # (alpha, theta), as the kernel's blocks are laid out
        for a in a_blocks:
            for t, law in zip(t_blocks, laws):
                shape = (alphas[a].size, *law.shifts.shape)
                x, y = (w[: math.prod(shape)].reshape(shape) for w in work)
                grad[a, t] = _partials(scn, alphas[a, None, None], law, x, y, with_alpha=False)[1]
    # E[Z] = 0 for both noise laws: the partial at theta = 0 is exactly 0,
    # where the quadrature sum would leave rounding.
    dw_dtheta[:, :, thetas == 0.0] = 0.0
    negative = np.count_nonzero(dw_dtheta < NEGATIVE_GRADIENT_CUTOFF, axis=(2, 3))
    fractions = negative / (thetas.size * alphas.size)
    return GradientSignMap(n_values, u_abs_values, noise_kind, alphas, thetas, dw_dtheta, fractions)


GRADMAP_CSV_HEADER = "n,u_abs,noise_kind,fraction_negative"
GRADMAP_CELLS_CSV_HEADER = "n,u_abs,noise_kind,alpha,theta,dw_dtheta"


def _instance_keys(gmap: GradientSignMap) -> list[str]:
    """The "n,u_abs,noise_kind" text of each (n, |U|) instance, n-major. The
    n values print through str(), never through a numpy array, which would
    turn an int64 and an n of 2**63 into floats."""
    u_texts = column_fields(gmap.u_abs_values)
    kind = gmap.noise_kind.value
    return [f"{n},{u},{kind}" for n in gmap.n_values for u in u_texts]


def gradient_sign_map_to_csv(gmap: GradientSignMap) -> str:
    """One line per (n, |U|) instance, n-major."""
    fractions = gmap.fraction_negative.reshape(-1, 1)
    return grid_csv(GRADMAP_CSV_HEADER.split(","), [_instance_keys(gmap)], fractions)


def gradient_cells_to_csv(gmap: GradientSignMap) -> str:
    """Per-cell CSV: each instance's cells, theta-major, under its n, |U|
    and noise kind. The keys are formatted once per instance and the
    alpha,theta texts once per map; only dW/dtheta is formatted cell by
    cell."""
    keys = _instance_keys(gmap)
    alphas = column_fields(gmap.alphas)
    grid = [f"{a},{t}" for t in column_fields(gmap.thetas) for a in alphas]
    heads = np.repeat(np.array(keys, dtype=object), len(grid)).tolist()
    values = gmap.dw_dtheta.reshape(-1, 1)
    return grid_csv(GRADMAP_CELLS_CSV_HEADER.split(","), [heads, grid * len(keys)], values)
