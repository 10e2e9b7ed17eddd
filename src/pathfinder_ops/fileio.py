"""Small output helpers: 12-significant-digit floats, CSV and JSON text, and
atomic writes."""

from __future__ import annotations

import json
import os
import tempfile
from typing import Callable, Iterable, Sequence


def fmt12(x: float) -> str:
    """Format a float with 12 significant digits."""
    return f"{float(x):.12g}"


def grid_formatter() -> Callable[[float], str]:
    """fmt12 for values that repeat across rows, such as grid values: each
    distinct value is formatted once. Zeros are formatted every time, since
    0.0 and -0.0 share a dict key but print differently."""
    memo: dict[float, str] = {}

    def fmt(x: float) -> str:
        text = memo.get(x)
        if text is None:
            text = fmt12(x)
            if x:
                memo[x] = text
        return text

    return fmt


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A small table as CSV: floats with 12 significant digits, None as an
    empty field, anything else as str(). Ends with a newline."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(
                "" if v is None else fmt12(v) if isinstance(v, float) else str(v) for v in row
            )
        )
    return "\n".join(lines) + "\n"


def json_text(obj) -> str:
    """JSON with sorted keys, two-space indent and a trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    """Write text to `path` via a temp file + rename in the same directory.

    A partially written file never appears at the target path.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
