"""Small file helpers: float column fields, grid tables filled through one `%`
template, JSON text, atomic writes of text or of its chunks, and the one JSON
file reader. numpy is imported by the helpers that build arrays, not with
the module, so writing JSON or text costs no numpy import."""

from __future__ import annotations

import contextlib
import json
import os
from collections.abc import Iterable, Sequence

# Lines in each text block of a table written in blocks (the labelled corpus,
# the gradient map's cells): large enough that a block costs little beyond
# its joins, small enough that no block holds much.
BLOCK_ROWS = 4096


def column_fields(column) -> list[str]:
    """The fields of one float column, each distinct value formatted once
    with 12 significant digits and NaN as an empty field. Values are told
    apart by bit pattern, so 0.0 and -0.0 print differently."""
    import numpy as np

    values = np.ascontiguousarray(column, dtype=float)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    distinct = bits.view(float)
    texts = np.array([f"{v:.12g}" for v in distinct.tolist()], dtype=object)
    texts[np.isnan(distinct)] = ""
    return texts[inverse].tolist()


def _escaped(part):
    """A template part (a str, or a list of them) with "%" doubled, so that
    `%` formatting prints it as itself."""
    if isinstance(part, str):
        return part.replace("%", "%%")
    return [text.replace("%", "%%") for text in part]


def _lines(parts: list, count: int) -> str:
    """`count` comma-separated lines: field j of line i is parts[j][i], or
    parts[j] itself where that is a str."""
    stride = 2 * len(parts)
    slots = [","] * (stride * count)
    for j, part in enumerate(parts):
        slots[2 * j :: stride] = [part] * count if isinstance(part, str) else part
    slots[stride - 1 :: stride] = ["\n"] * count
    return "".join(slots)


def grid_csv(header: Sequence[str], keys: Sequence, values, tails: Sequence = ()) -> str:
    """A grid table as CSV text with a trailing newline. Line i holds the
    key texts keys[0][i], keys[1][i], ..., the floats of row i of the 2-D
    array `values` with 12 significant digits (an empty field for NaN), and
    the tail texts tails[0][i], ... Each key or tail is a list of finished
    field texts, one per line (from `column_fields`, say), or one str for
    every line.

    The lines are written as one template with a %.12g placeholder for each
    value that is not NaN, and filled by a single `%` with those values:
    '%.12g' % v and f"{v:.12g}" are the same routine for every float.
    """
    import numpy as np

    values = np.asarray(values, dtype=float)
    lines, width = values.shape
    nan = np.isnan(values)
    fields = ",".join(["%.12g"] * width)
    if nan.any():
        # Rows holding NaN get the field template of their NaN pattern, each
        # pattern's made once.
        holes = np.flatnonzero(nan.any(axis=1))
        patterns = list(map(tuple, nan[holes].tolist()))
        texts = {p: ",".join("" if m else "%.12g" for m in p) for p in set(patterns)}
        column = np.empty(lines, dtype=object)
        column[:] = fields
        column[holes] = [texts[p] for p in patterns]
        fields = column.tolist()
    filled = values[~nan].tolist()
    body = _lines([*keys, fields, *tails], lines)
    # Each placeholder brings one "%"; any other comes from a key or tail
    # text, and all of those are doubled to print as themselves.
    if body.count("%") != len(filled):
        body = _lines([*map(_escaped, keys), fields, *map(_escaped, tails)], lines)
    return (_escaped(",".join(header)) + "\n" + body) % tuple(filled)


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
