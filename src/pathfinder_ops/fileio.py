"""Small file helpers: CSV fields and tables, JSON text, atomic writes of
text or of its chunks, and the one JSON file reader.

Every float of every table goes through `float_fields`, one numpy kernel
that writes each value as the exact bytes of f"{v:.12g}" in a fixed-width,
NUL-padded slot. A block of table lines is the concatenation of its
columns' slots, made into text by one NUL drop and one decode. numpy is
imported by the helpers that build arrays, not with the module, so writing
JSON or text costs no numpy import."""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
from collections.abc import Iterable, Sequence
from types import SimpleNamespace

# Lines in each text block of a table written in blocks: large enough that a
# block costs little beyond its numpy calls, small enough that no block holds
# much.
BLOCK_ROWS = 4096

# Bytes of one float field's slot: its comma and the 19 characters of the
# longest f"{v:.12g}" text, such as "-1.23456789012e-308".
FIELD_BYTES = 20
_WORDS = FIELD_BYTES // 4

# Calls with fewer values than this format them with Python alone: below it,
# the kernel's fixed cost of some 60 numpy calls (45-75 us) exceeds what it
# saves over Python's 0.25-0.5 us a value (measured on a 2-CPU host).
_KERNEL_MIN_VALUES = 160


# The fast route's decades e, by index e + 99: from 10^-99, written in
# exponent form ("1.5e-07"), to 10^-1; the last _FIXED of them, from 10^-4,
# in fixed notation ("0.00015").
_DECADES = 99
_FIXED = 4


@functools.cache
def _kernel_tables():
    """The kernel's constants, built on first use. Texts are held as the
    native uint32 words of their bytes, so that gathered words land in
    memory as those bytes."""
    import numpy as np

    def words(texts, width):
        data = b"".join(text.encode().ljust(width, b"\0") for text in texts)
        return np.frombuffer(data, dtype=np.uint32)

    # edges[i] is the double nearest 10^(i - 99): the edges at or below |v|
    # count its decade, but for an edge below its power of ten, which is
    # counted a decade high. That writes it rightly: within an ulp of the
    # power, it rounds to it at twelve digits, M = 10^11 in either decade.
    # A binade spans less than a decade: its values' decade is that of its
    # least value, or the next one from the edge that follows.
    edges = np.array([float(f"1e{k}") for k in range(-_DECADES, 1)])
    lows = (np.searchsorted(edges, np.ldexp(1.0, np.arange(-1023, 0)), side="right") - 1).clip(0)
    # Every four-digit group, plain and then with its trailing zeros as NUL.
    plain = (np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    stripped = plain.copy()
    stripped[np.logical_and.accumulate(plain[:, ::-1] == ord("0"), axis=1)[:, ::-1]] = 0
    # A field's front by sign, then by decade in fixed notation (",0.000"
    # to ",0.") or by point and lead digit in exponent form (",1" to ",9.").
    fronts = [
        front for sign in ("", "-") for front in [f",{sign}0.{'0' * (_FIXED - 1 - k)}" for k in range(_FIXED)]
        + [f",{sign}{digit}{point}" for point in ("", ".") for digit in range(10)]
    ]
    specials = (0.0, -0.0, 1.0, -1.0)
    return SimpleNamespace(
        edges=edges,
        # By biased binary exponent: the decade of the binade's least value
        # and the edge of the decade after it.
        lows=lows,
        ups=edges.take(lows + 1),
        # The double nearest each decade's scale 10^(11 - e).
        scales=np.array([float(f"1e{11 + _DECADES - i}") for i in range(_DECADES)]),
        quads=np.concatenate([plain, stripped]).view(np.uint32).ravel(),
        # The mask that keeps all but the first byte of a group.
        after_first=np.frombuffer(b"\0\xff\xff\xff", np.uint32)[0],
        fronts=words(fronts, 8).reshape(-1, 2).T.copy(),
        exponents=words([f"e-{_DECADES - i:02}" for i in range(_DECADES)], 4),
        special_bits=np.array(specials).view(np.int64).tolist(),
        # Slot 0 is NaN's, slot k that of specials[k - 1], the last a filler.
        special=words([","] + [f",{value:g}" for value in specials] + [""], FIELD_BYTES).reshape(-1, _WORDS),
    )


def _python_fields(values):
    """`float_fields` of a flat array by Python's own formatting, as rows of
    uint32 words: one `%` fill of every value, each field ended by a NUL
    to split at, and every "nan", which no other text holds, made empty."""
    import numpy as np

    texts = ((",%.12g\0" * values.size) % tuple(values.tolist())).replace("nan", "").split("\0")
    return np.array(texts[:-1], dtype=f"S{FIELD_BYTES}").view(np.uint32).reshape(-1, _WORDS)


def float_fields(values):
    """The CSV fields of a float array, as a uint8 array with one row per
    entry of `values` (or per row, for a 2-D array): each value a slot of
    FIELD_BYTES bytes, its first byte a comma, then the text of
    f"{v:.12g}", exactly, in bytes that are read in turn once every NUL
    among and after them is dropped. NaN is an empty field.

    Values with 1e-99 <= |v| < 1 are written by array operations, from the
    12-digit integer M = rint(m), m = |v|·10^(11−e), for the decade e of
    |v|, with M's trailing zeros dropped. From 1e-4 the text is "0." and
    -e - 1 zeros, then those digits; below, it is M's first digit, a point
    if more digits follow, the others, and "e-" and -e in two digits. The
    scale is the double nearest 10^(11−e) and the product is rounded once,
    so m is within 2^-12 of the true value below 10^12: rint(m) is the
    correctly rounded significand whenever rint(m) < 10^12 and m lies more
    than 0.001 from a half-integer. ±0, ±1 and NaN are written by mask.
    Every other value goes through Python's own formatting: near-ties,
    |v| < 1e-99, |v| >= 1, infinities, and every call of fewer than
    _KERNEL_MIN_VALUES values."""
    import numpy as np

    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        values = values.reshape(-1, 1)
    shape = (values.shape[0], values.shape[1] * FIELD_BYTES)
    v = values.ravel()
    if v.size < _KERNEL_MIN_VALUES:
        return _python_fields(v).view(np.uint8).reshape(shape)
    t = _kernel_tables()
    magnitude = np.abs(v)
    fast = (magnitude >= t.edges[0]) & (magnitude < 1.0)
    # The digits are made for every value, 0.5 standing in for each one off
    # the fast route, whose row is overwritten below.
    x = np.where(fast, magnitude, 0.5)
    binade = x.view(np.int64) >> 52
    decade = t.lows.take(binade) + (x >= t.ups.take(binade))
    m = x * t.scales.take(decade)
    digits = np.rint(m)
    fast &= (np.abs(m - digits) < 0.499) & (digits < 1e12)
    # M in three groups of four digits. A group followed only by zero
    # groups is looked up with its trailing zeros as NUL. (A value rounding
    # up to 10^12 takes clipped entries; its row is overwritten below.)
    digits = digits.astype(np.int64)
    high = digits // 10**8
    low = digits - high * 10**8
    mid = low // 10**4
    low -= mid * 10**4
    groups = [
        t.quads.take(high + 10**4 * ((mid | low) == 0), mode="clip"),
        t.quads.take(mid + 10**4 * (low == 0)),
        t.quads.take(low + 10**4),
    ]
    # Fixed notation is a front of two words and the three groups; exponent
    # form a front of one word, holding M's first digit, the rest of the
    # groups and the exponent.
    fixed = decade >= _DECADES - _FIXED
    after_first = groups[0] & t.after_first
    front = np.where(fixed, decade - (_DECADES - _FIXED), _FIXED + 10 * (after_first != 0) + high // 1000)
    front += (len(t.fronts[0]) // 2) * np.signbit(v)
    words = np.empty((v.size, _WORDS), np.uint32)
    words[:, 0] = t.fronts[0].take(front, mode="clip")
    exponent_form = [after_first, *groups[1:], t.exponents.take(decade)]
    for column, pair in enumerate(zip([t.fronts[1].take(front, mode="clip"), *groups], exponent_form), 1):
        words[:, column] = np.where(fixed, *pair)
    rest = np.flatnonzero(~fast)
    if rest.size:
        # The other values by kind: NaN, each special bit pattern, and what
        # is left, which Python formats.
        others = v[rest]
        kind = np.full(rest.size, len(t.special) - 1, np.intp)
        kind[np.isnan(others)] = 0
        for code, bits in enumerate(t.special_bits, 1):
            kind[others.view(np.int64) == bits] = code
        slots = t.special.take(kind, axis=0)
        left = np.flatnonzero(kind == len(t.special) - 1)
        if left.size:
            slots[left] = _python_fields(others[left])
        # Rows are placed as whole FIELD_BYTES items, not word by word.
        item = f"V{FIELD_BYTES}"
        words.view(item)[rest, 0] = slots.view(item)[:, 0]
    return words.view(np.uint8).reshape(shape)


def text_fields(texts):
    """The CSV fields of a sequence of texts, as a uint8 array with one row
    per text: a comma, then its UTF-8 bytes, NUL-padded to the longest.
    No text may hold a NUL, which the table writer drops."""
    import numpy as np

    texts = np.ascontiguousarray(texts, dtype=str).ravel()
    codes = texts.view(np.uint32).reshape(texts.size, texts.itemsize // 4)
    if codes.size and codes.max() >= 0x80:
        encoded = np.array([text.encode() for text in texts.tolist()], dtype=bytes)
        codes = encoded.view(np.uint8).reshape(texts.size, encoded.itemsize)
    fields = np.zeros((texts.size, 1 + codes.shape[1]), np.uint8)
    fields[:, 0] = ord(",")
    fields[:, 1:] = codes
    return fields


def csv_lines(fields: Sequence) -> str:
    """Lines of CSV text: line i is row i of each array of `fields` (uint8
    arrays of one number of rows, from `float_fields` or `text_fields`,
    each field a comma and then its text, NUL dropped) in turn, with the
    first field's comma dropped, then "\\n"."""
    import numpy as np

    lines = len(fields[0])
    if any(len(part) != lines for part in fields):
        raise ValueError("every column of a table must have one field per line")
    ends = list(itertools.accumulate(part.shape[1] for part in fields))
    row = np.empty((lines, ends[-1] + 1), np.uint8)
    for part, start, end in zip(fields, [0, *ends], ends):
        row[:, start:end] = part
    row[:, 0] = 0
    row[:, -1] = ord("\n")
    return row.tobytes().translate(None, b"\0").decode()


def grid_csv(header: Sequence[str], columns: Sequence) -> str:
    """A table as CSV text with a trailing newline: the header line, then
    one line per row. Each column is a uint8 array of fields (`text_fields`)
    or a float array of one value (1-D) or one row of values (2-D) per line.
    The lines are made in blocks of BLOCK_ROWS, each run of adjacent float
    columns by one `float_fields` call a block."""
    import numpy as np

    def is_text(column) -> bool:
        return getattr(column, "dtype", None) == np.uint8

    columns = [column if is_text(column) else np.asarray(column, dtype=float) for column in columns]
    lines = len(columns[0])
    if any(len(column) != lines for column in columns):
        raise ValueError("every column of a table must have one field per line")
    runs = [(text, list(run)) for text, run in itertools.groupby(columns, key=is_text)]
    blocks = [",".join(header) + "\n"]
    for start in range(0, lines, BLOCK_ROWS):
        fields = []
        for text, run in runs:
            parts = [column[start : start + BLOCK_ROWS] for column in run]
            fields += parts if text else [float_fields(parts[0] if len(parts) == 1 else np.column_stack(parts))]
        blocks.append(csv_lines(fields))
    return "".join(blocks)


def json_text(obj) -> str:
    """JSON with sorted keys, two-space indent and a trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def atomic_write_text(path: str, text: str | Iterable[str]) -> None:
    """Write text to `path` via a temp file + rename in the same directory.
    The text is a str, or an iterable of str chunks written one at a time, so
    it is never held whole; a str is one chunk.

    A partially written file never appears at the target path, a failed write
    (an error taking a chunk included) leaves no temp file, and its OSError
    names `path` alone. The file gets the mode `open()` gives a new one:
    0o666 less the umask in force when it is written.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = None
    try:
        while tmp_path is None:
            name = os.path.join(directory, f".tmp-{os.urandom(6).hex()}~")
            with contextlib.suppress(FileExistsError):
                fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                tmp_path = name
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            for chunk in [text] if isinstance(text, str) else text:
                handle.write(chunk)
        os.replace(tmp_path, path)
    except BaseException as exc:
        if tmp_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp_path)
        if isinstance(exc, OSError):
            # Deleted, not set to None, which OSError would print as "-> None".
            exc.filename = path
            del exc.filename2
        raise


def read_json(path: str, what: str):
    """The JSON document in the UTF-8 file at `path`, after a byte-order
    mark if there is one (spreadsheet and Windows tools write one). A file
    that cannot be read, or is not valid JSON (bad UTF-8, bad syntax,
    nesting too deep for the parser), raises ValueError naming `what` and
    `path`."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {what} {path}: {exc}")
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{what} {path} is not valid JSON: {exc}")
