"""Exception types shared across the package, and the one rule for what a
number is: a real value (an int, a float, a Fraction or a numpy scalar) that
is not a bool, is finite (an int beyond the float range is not) and lies
within its bounds. `number`, `integer` and `number_array` check it for every
library constructor and config key, and raise ValueError for anything else.

Two bases classify every failure. Bad input (an out-of-range value, an
empty grid, a duplicate id) is a ValueError. Valid input that has no result
is a PathfinderOpsError; the self-checks of a computed result raise
ArithmeticError.
"""

import math
import numbers
import reprlib
import sys

import numpy as np


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
    """A numpy scalar as the Python value it holds; anything else as it is."""
    return value.item() if isinstance(value, np.generic) else value


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
    ValueError naming `name` otherwise. An int or float array is checked in one
    vectorised pass, anything else (a nested sequence, say) entry by entry."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "fiu"):
        entries = np.asarray(values, dtype=object)
        checked = [number(name, v, lo, hi, lo_open=lo_open, hi_open=hi_open) for v in entries.flat]
        return np.array(checked, dtype=float).reshape(entries.shape)
    arr = values.astype(float, copy=False)
    ok = _within(arr, lo, hi, lo_open, hi_open)
    if not ok.all():
        raise _out_of_range(name, values[~ok].flat[0].item(), lo, hi, lo_open, hi_open)
    return arr
