"""Exception types shared across the package, and the one rule for what a
number is: a real value (an int, a float, a Fraction or a numpy scalar) that
is not a bool, is finite (an int beyond the float range is not) and lies
within its bounds. `number`, `integer` and `number_array` check it for every
library constructor and config key, and raise ValueError for anything else;
`number_array` checks the range of a whole list or array in one pass.
`json_object` checks the keys of every object in a config, rules or agent file,
and `step_grid` builds every evenly stepped grid.

Two bases classify every failure. Bad input (an out-of-range value, an
empty grid, a duplicate id) is a ValueError. Valid input that has no result
is a PathfinderOpsError; the self-checks of a computed result raise
ArithmeticError.
"""

import math
import numbers
import reprlib
import sys


class PathfinderOpsError(Exception):
    """Valid input for which there is no result; subclasses name the case."""


class NonUniqueStationary(PathfinderOpsError):
    """The chain has more than one stationary distribution (reducible with
    multiple recurrent classes); refusing to pick one silently."""


class NoTippingPoint(PathfinderOpsError):
    """The failure threshold is unreachable for any rejective-agent mixture."""


class DegenerateGradient(PathfinderOpsError):
    """The worst-case probability is numerically flat in alpha at the tipping
    point, so the implicit derivative is undefined."""


class InsufficientData(PathfinderOpsError):
    """The classified corpus cannot calibrate the chain (zero denominator)."""


# --- what a number is ---------------------------------------------------------

_FLOAT_MAX = sys.float_info.max


def _plain(value):
    """A numpy scalar as the Python value it holds; anything else as it is.
    No value can be a numpy scalar before numpy is imported, so this never
    imports it."""
    np = sys.modules.get("numpy")
    return value.item() if np is not None and isinstance(value, np.generic) else value


def _within(x, lo, hi, lo_open: bool, hi_open: bool):
    """Whether x (a number, or a float array elementwise) is finite and in
    bounds; ints and floats compare exactly, so huge ints are refused."""
    above = (x > lo) if lo_open else (x >= lo)
    return (abs(x) <= _FLOAT_MAX) & above & ((x < hi) if hi_open else (x <= hi))


def _out_of_range(name: str, value, lo, hi, lo_open: bool, hi_open: bool) -> ValueError:
    if math.isinf(hi):
        rule = "be finite" if math.isinf(lo) else f"be finite and {'>' if lo_open else '>='} {lo}"
    elif math.isinf(lo):
        rule = f"be finite and {'<' if hi_open else '<='} {hi}"
    else:
        rule = f"lie in {'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}"
    return ValueError(f"{name} must {rule}, got {reprlib.repr(value)}")


def number(name: str, value, lo=-math.inf, hi=math.inf, *, lo_open=False, hi_open=False) -> float:
    """`value` as a float if it is a number within [lo, hi] (an open bound
    excludes itself); ValueError naming `name` otherwise."""
    value = _plain(value)
    if type(value) not in (float, int) and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        raise ValueError(f"{name} must be a number, got {reprlib.repr(value)}")
    if not _within(value, lo, hi, lo_open, hi_open):
        raise _out_of_range(name, value, lo, hi, lo_open, hi_open)
    return float(value)


def integer(name: str, value, lo=-math.inf, hi=math.inf) -> int:
    """`value` as an int if it is an integral number within [lo, hi];
    ValueError naming `name` otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {reprlib.repr(_plain(value))}")
    number(name, value, lo, hi)
    return int(value)


def number_array(name: str, values, lo=-math.inf, hi=math.inf, *, lo_open=False, hi_open=False):
    """`values` as a float array if every entry is a number within the bounds,
    ValueError naming `name` otherwise. Outside an int or float array, each
    entry but a plain float goes through `number`; one vectorised pass then
    checks every range. So [2.0, True] names True, not the earlier 2.0."""
    import numpy as np

    if isinstance(values, np.ndarray) and values.dtype.kind in "fiu":
        entries, arr = values, values.astype(float, copy=False)
    else:
        entries = np.asarray(values, dtype=object)
        bounds = dict(lo=lo, hi=hi, lo_open=lo_open, hi_open=hi_open)
        checked = [v if type(v) is float else number(name, v, **bounds) for v in entries.flat]
        arr = np.array(checked, dtype=float).reshape(entries.shape)
    ok = _within(arr, lo, hi, lo_open, hi_open)
    if not ok.all():
        raise _out_of_range(name, _plain(entries[~ok].flat[0]), lo, hi, lo_open, hi_open)
    return arr


def step_grid(lo: float, hi: float, step: float, most: int) -> list[float]:
    """lo, lo + step, ... up to hi (within 1e-9 of a step), each rounded to 12
    decimals. The count is checked against `most` before any value is built.
    A ValueError's message completes a sentence that begins with the grid's
    name: finite lo <= hi and step > 0 are needed, and no two values may be
    equal once rounded."""
    if not (all(map(math.isfinite, (lo, hi, step))) and step > 0 and lo <= hi):
        raise ValueError("needs finite lo <= hi and step > 0")
    span = (hi - lo) / step + 1e-9
    if not span < most:
        raise ValueError(f"may have at most {most} values")
    values = [round(lo + i * step, 12) for i in range(int(span) + 1)]
    if len(set(values)) < len(values):
        raise ValueError("values repeat once rounded to 12 decimals")
    return values


# --- what a JSON object holds -------------------------------------------------


def json_object(where: str, obj, known, required=()) -> dict:
    """`obj` if it is a dict with keys only from `known` and every key in
    `required`; ValueError naming `where` and the first bad key otherwise."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    for key in obj:
        if key not in known:
            raise ValueError(f"{where}: unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise ValueError(f"{where}: missing key {key!r}")
    return obj
