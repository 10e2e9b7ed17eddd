"""Four-state gate/pathfinding Markov chain and its stationary behavior.

States are indexed 0..3: Gate Closed, Pathfinder Selection, Pathfinding,
Gate Opened. Transitions are driven by three probabilities: favorable
weather observation (p_good), offer acceptance (p_accept), and pathfinding
success (p_success). The stationary distribution is obtained by solving the
balance equations with the normalization constraint; a rank test on the
balance system detects parameterizations whose stationary distribution is
not unique and refuses to pick one.

All functions here are pure. One batched kernel, `steady_states`, solves a
whole stack of chains at once; the single-chain and sweep entry points are
thin wrappers over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyGrid, NonUniqueStationary
from .fileio import csv_columns

N_STATES = 4
STATE_NAMES = ("Gate Closed", "Pathfinder Selection", "Pathfinding", "Gate Opened")

# Entries of the 4x4 transition matrix that are structurally zero.
STRUCTURAL_ZEROS = ((0, 2), (0, 3), (1, 0), (1, 3), (2, 1), (2, 2), (3, 1), (3, 2))

# Singular values of the balance system below this are treated as rank
# deficiency, i.e. a second recurrent class.
_RANK_TOL = 1e-10

_EYE = np.eye(N_STATES)
# Right-hand side of the normalized balance system: zeros, then sum(pi) = 1.
_NORMALIZATION_RHS = np.array([[0.0], [0.0], [0.0], [1.0]])
_EYE.setflags(write=False)
_NORMALIZATION_RHS.setflags(write=False)

# Cap on the cells of one sweep, checked before anything is allocated. A sweep
# holds about 740 bytes per cell at peak with CSV output and 2.1 KB with JSON
# (tracemalloc), so the cap bounds memory to about 190 and 530 MiB; it runs
# in about 3 s (8e4 cells/s, 2-CPU machine).
MAX_SWEEP_CELLS = 2**18


@dataclass(frozen=True)
class ChainParams:
    """The probability triple driving the chain."""

    p_good: float
    p_accept: float
    p_success: float

    def __post_init__(self):
        for name in ("p_good", "p_accept", "p_success"):
            value = float(getattr(self, name))
            if math.isnan(value) or not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)!r}")
            object.__setattr__(self, name, value)


# One record per sweep cell. pi is NaN and status 'non_unique' where the
# chain has several recurrent classes; status is 'ok' elsewhere.
SWEEP_DTYPE = np.dtype(
    [("p_good", float), ("p_accept", float), ("p_success", float),
     ("pi", float, (N_STATES,)), ("status", "U10")]
)


def transition_matrices(p_good, p_accept, p_success) -> np.ndarray:
    """Stack of 4x4 row-stochastic transition matrices.

    The three arguments broadcast against each other; the result has their
    broadcast shape followed by (4, 4).
    """
    g, a, s = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (p_good, p_accept, p_success))
    )
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


def build_transition_matrix(params: ChainParams) -> np.ndarray:
    """Return the 4x4 row-stochastic transition matrix for `params`."""
    return transition_matrices(params.p_good, params.p_accept, params.p_success)


def _check_row_stochastic(matrices: np.ndarray) -> np.ndarray:
    matrices = np.asarray(matrices, dtype=float)
    if matrices.shape[-2:] != (N_STATES, N_STATES):
        raise ValueError(f"expected {N_STATES}x{N_STATES} matrices, got shape {matrices.shape}")
    if (matrices < -1e-15).any() or (matrices > 1.0 + 1e-15).any():
        raise ValueError("transition matrix entries must lie in [0, 1]")
    row_sums = matrices.sum(axis=-1)
    bad = np.abs(row_sums - 1.0) > 1e-12
    if bad.any():
        raise ValueError(
            f"matrix rows must sum to 1 within 1e-12, got sums {row_sums[bad.any(axis=-1)][0]}"
        )
    return matrices


def steady_states(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve pi @ P = pi with sum(pi) = 1 for each matrix of a stack.

    `matrices` has shape (..., 4, 4). Returns (pi, unique): pi has shape
    (..., 4) and unique is a boolean array of shape (...). A cell is not
    unique when its balance system is rank deficient beyond normalization,
    i.e. the chain has several recurrent classes; its pi row is NaN.

    Each unique cell solves the balance system with one equation replaced
    by the normalization constraint (dense LU). Components in [-1e-12, 0)
    are clamped to zero and the vector renormalized. Raises ArithmeticError
    if any cell has a component below -1e-12 or a stationarity residual
    above 1e-10.
    """
    matrices = _check_row_stochastic(matrices)
    balance = np.swapaxes(matrices, -1, -2) - _EYE
    singular_values = np.linalg.svd(balance, compute_uv=False)
    unique = singular_values[..., N_STATES - 2] > _RANK_TOL
    # Rows of the balance system sum to zero, so dropping one loses nothing,
    # and the normalization row is independent of the rest.
    system = balance[unique]
    system[:, -1, :] = 1.0
    solved = np.linalg.solve(system, _NORMALIZATION_RHS)[:, :, 0]

    if solved.size and solved.min() < -1e-12:
        worst = solved[solved.min(axis=-1).argmin()]
        raise ArithmeticError(f"stationary solve produced negative component: {worst}")
    solved = np.maximum(solved, 0.0)
    solved /= solved.sum(axis=-1, keepdims=True)
    residual = np.abs((solved[:, None, :] @ matrices[unique])[:, 0, :] - solved)
    if residual.size and residual.max() > 1e-10:
        raise ArithmeticError(f"stationarity residual {residual.max():.3e} exceeds 1e-10")
    pi = np.full(unique.shape + (N_STATES,), np.nan)
    pi[unique] = solved
    return pi, unique


def steady_state(matrix: np.ndarray) -> np.ndarray:
    """Solve pi @ P = pi with sum(pi) = 1 for one row-stochastic 4x4 P.

    A stack of one through `steady_states`. Raises NonUniqueStationary
    when the chain has several recurrent classes.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (N_STATES, N_STATES):
        raise ValueError(f"expected a {N_STATES}x{N_STATES} matrix, got shape {matrix.shape}")
    pi, unique = steady_states(matrix[None])
    if not unique[0]:
        raise NonUniqueStationary(
            "chain is reducible with more than one recurrent class; "
            "stationary distribution is not unique"
        )
    return pi[0]


def _validate_grid(values, name: str, low_open: bool) -> list[float]:
    values = [float(v) for v in values]
    if not values:
        raise EmptyGrid(f"{name} grid must be non-empty")
    for v in values:
        if math.isnan(v) or v > 1.0 or v < 0.0 or (low_open and v == 0.0):
            bounds = "(0, 1]" if low_open else "[0, 1]"
            raise ValueError(f"{name} grid values must lie in {bounds}, got {v!r}")
    return sorted(values)


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
    status 'non_unique'. All cells are solved in one `steady_states` call;
    a sweep of more than MAX_SWEEP_CELLS cells is refused first.
    """
    g_grid = _validate_grid(g_grid, "p_good", low_open=True)
    a_grid = _validate_grid(a_grid, "p_accept", low_open=True)
    s_grid = _validate_grid(s_grid, "p_success", low_open=False)
    cells = len(g_grid) * len(a_grid) * len(s_grid)
    if cells > MAX_SWEEP_CELLS:
        raise ValueError(f"a sweep may have at most {MAX_SWEEP_CELLS} cells, got {cells}")
    g, a, s = (axis.ravel() for axis in np.meshgrid(g_grid, a_grid, s_grid, indexing="ij"))
    pi, unique = steady_states(transition_matrices(g, a, s))
    return sweep_records(g, a, s, pi, unique)


def default_grid(step: float = 0.05) -> list[float]:
    """Interior probability grid step, 2*step, ..., < 1 used for sweeps."""
    if not 0.0 < step < 1.0:
        raise ValueError(f"step must lie in (0, 1), got {step!r}")
    count = int(round((1.0 - step) / step))
    return [round(i * step, 12) for i in range(1, count + 1) if i * step < 1.0 - 1e-12]


SWEEP_CSV_HEADER = "p_good,p_accept,p_success,pi0,pi1,pi2,pi3,status"


def sweep_to_csv(records: np.ndarray) -> str:
    """Sweep records as CSV (12 significant digits, empty pi fields for
    non-unique cells, trailing newline)."""
    cells = [records[name] for name in ("p_good", "p_accept", "p_success")]
    return csv_columns(SWEEP_CSV_HEADER.split(","), [*cells, *records["pi"].T, records["status"]])
