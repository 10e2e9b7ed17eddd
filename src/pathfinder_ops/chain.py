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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonUniqueStationary, number, number_array
from .fileio import column_fields, grid_csv

N_STATES = 4

# Entries of the 4x4 transition matrix that are structurally zero.
STRUCTURAL_ZEROS = ((0, 2), (0, 3), (1, 0), (1, 3), (2, 1), (2, 2), (3, 1), (3, 2))

# Largest stationarity residual `stationary` accepts from its own result.
_RESIDUAL_TOL = 1e-10

# Cap on the cells of one sweep, checked before anything is allocated. A sweep
# holds about 600 bytes per cell at peak with CSV output and 2.1 KB with JSON
# (tracemalloc), so the cap bounds memory to about 150 and 530 MiB. At the cap
# a sweep takes about 0.85 s with CSV output and 5.5 s with JSON (2-CPU
# machine), nearly all of it formatting: the solve itself takes about 0.08 s.
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


def _validate_grid(values, name: str, low_open: bool) -> list[float]:
    """A grid of probabilities in [0, 1] or (0, 1], a number or a sequence of
    them, as a sorted list."""
    grid = number_array(f"{name} grid values", values, 0, 1, lo_open=low_open).ravel()
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
    g_grid = _validate_grid(g_grid, "p_good", low_open=True)
    a_grid = _validate_grid(a_grid, "p_accept", low_open=True)
    s_grid = _validate_grid(s_grid, "p_success", low_open=False)
    cells = len(g_grid) * len(a_grid) * len(s_grid)
    if cells > MAX_SWEEP_CELLS:
        raise ValueError(f"a sweep may have at most {MAX_SWEEP_CELLS} cells, got {cells}")
    g, a, s = (axis.ravel() for axis in np.meshgrid(g_grid, a_grid, s_grid, indexing="ij"))
    pi, unique = stationary(g, a, s)
    return sweep_records(g, a, s, pi, unique)


def default_grid(step: float = 0.05) -> list[float]:
    """Interior probability grid step, 2*step, ..., < 1 used for sweeps."""
    step = number("step", step, 0, 1, lo_open=True, hi_open=True)
    count = int(round((1.0 - step) / step))
    return [round(i * step, 12) for i in range(1, count + 1) if i * step < 1.0 - 1e-12]


SWEEP_CSV_HEADER = "p_good,p_accept,p_success,pi0,pi1,pi2,pi3,status"


def sweep_to_csv(records: np.ndarray) -> str:
    """Sweep records as CSV (12 significant digits, empty pi fields for
    non-unique cells, trailing newline): each line is its p_good, p_accept,
    p_success texts, its pi values and its status."""
    keys = [column_fields(records[name]) for name in ("p_good", "p_accept", "p_success")]
    return grid_csv(SWEEP_CSV_HEADER.split(","), keys, records["pi"], [records["status"].tolist()])
