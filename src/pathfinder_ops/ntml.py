"""Coordination-log ingestion: rule-based labeling and chain calibration.

Free-text traffic-management log comments mentioning pathfinders are
labeled with a fixed-precedence keyword scheme (Failed, then Rejected, then
Assigned, then Requested, with Mentioned as the fallback). Assigned
additionally requires a flight number in the comment; Failed presupposes an
assignment gone wrong, which is why it outranks everything else. Label
counts feed the ratio estimators for the chain's acceptance and success
probabilities.

Keyword lists and the flight-number pattern live in a JSON rules file so
they can be extended without touching code. Comments and keywords are
normalized alike: lowercased, apostrophes removed, every other character
outside [a-z0-9] and whitespace turned into a space, whitespace collapsed.
A keyword matches as a whole word of the normalized comment, which on such
text is a plain substring test of the space-padded forms; the first
keyword to match, in precedence then list order, names the rule. The
flight-number pattern is searched only when an Assigned keyword matches.

A corpus is handled column by column: `read_corpus_csv` returns the
timestamp, facility and comment columns, `classify_corpus` labels each
distinct comment once and gives every row one of the rule set's shared
`Match` values, and `labeled_to_csv` writes the columns back with the
labels as CSV text blocks: each distinct facility, comment and match is
quoted once, by the RFC 4180 rule, and the blocks are joined from those
texts one at a time, so the whole text is never held.

`generate_corpus` draws seeded synthetic corpora whose labels are known by
construction, for fixtures and stress tests.
"""

from __future__ import annotations

import contextlib
import csv
import enum
import json
import pkgutil
import re
from collections import Counter
from dataclasses import dataclass, fields
from datetime import datetime
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .chain import _validate_grid, steady_state, sweep_records
from .errors import InsufficientData, integer, json_object
from .fileio import BLOCK_ROWS, read_json


class Label(enum.Enum):
    ASSIGNED = "Assigned"
    REQUESTED = "Requested"
    REJECTED = "Rejected"
    FAILED = "Failed"
    MENTIONED = "Mentioned"


# Most specific first: a failure report usually also names the assignment,
# and a denial may quote the request it denies.
PRECEDENCE = (Label.FAILED, Label.REJECTED, Label.ASSIGNED, Label.REQUESTED)

FALLBACK_RULE = "fallback"
# Looking a member up on the Enum class costs about 0.15 us; the matcher
# runs once per comment.
_ASSIGNED, _MENTIONED = Label.ASSIGNED, Label.MENTIONED


class LogRecord(NamedTuple):
    """One corpus row, its timestamp as the ISO-8601 text a `LogCorpus`
    holds (`2022-12-22T06:49:00+00:00`, say)."""

    timestamp: str
    facility: str
    comment: str


class Match(NamedTuple):
    """The label of a comment and the id of the rule that gave it."""

    label: Label
    rule: str


class LogCorpus(NamedTuple):
    """A corpus as three columns of one length: each timestamp as the text
    `datetime.isoformat()` prints for it, and the facilities and comments
    as read."""

    timestamps: list[str]
    facilities: list[str]
    comments: list[str]


@dataclass(frozen=True)
class LabelCounts:
    n_assigned: int = 0
    n_requested: int = 0
    n_rejected: int = 0
    n_failed: int = 0
    n_mentioned: int = 0

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, integer(f.name, getattr(self, f.name), 0))

    def total(self) -> int:
        return sum(self.as_dict().values())

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_NON_ALNUM = re.compile(r"[^a-z0-9\s]")
# Bytes _NON_ALNUM matches become spaces; only the ASCII half is ever used.
_ASCII_TABLE = bytes(32 if _NON_ALNUM.match(chr(c)) else c for c in range(256))


def normalize_text(text: str) -> str:
    """Lowercase, drop apostrophes, turn other punctuation into spaces,
    collapse whitespace. The result holds only [a-z0-9] and single spaces.

    Every character outside ASCII is punctuation or whitespace here, so once
    the curly apostrophes are gone it is encoded as "?", and one byte table
    does the rest."""
    t = text.lower()
    if not t.isascii():
        t = t.replace("’", "").replace("‘", "")
    return " ".join(t.encode("ascii", "replace").translate(_ASCII_TABLE, b"'").decode().split())


@dataclass(frozen=True)
class RuleSet:
    """Classification rules: the flight-number pattern gating the Assigned
    label, and every keyword as (label, " <normalized keyword> ", rule id)
    in match order: label precedence, then list order."""

    flight_number: re.Pattern
    keywords: tuple[tuple[Label, str, str], ...]


def parse_rules(doc, where: str = "rules file") -> RuleSet:
    """Validate and compile a rules document; errors name `where` and the
    bad entry."""
    keys = ("flight_number_pattern", "labels")
    json_object(where, doc, keys, keys)
    pattern_src = doc["flight_number_pattern"]
    if not isinstance(pattern_src, str) or not pattern_src:
        raise ValueError(f"{where}: 'flight_number_pattern' must be a non-empty string")
    # A repetition count past the engine's limit overflows, and deep nesting
    # exhausts the parser's recursion; both are patterns re cannot take.
    try:
        flight_number = re.compile(pattern_src)
    except (re.error, OverflowError, RecursionError) as exc:
        raise ValueError(f"{where}: 'flight_number_pattern' is not a valid regex: {exc}")
    by_value = {label.value: label for label in PRECEDENCE}
    known = [label.value for label in Label]
    labels_doc = json_object(f"{where}: labels", doc["labels"], known, by_value)
    keywords: dict[Label, list[tuple[Label, str, str]]] = {}
    for name, entries in labels_doc.items():
        if name == Label.MENTIONED.value:
            raise ValueError(f"{where}: labels.{name} takes no keywords (it is the fallback)")
        if not isinstance(entries, list) or not entries:
            raise ValueError(f"{where}: labels.{name} must be a non-empty list")
        label = by_value[name]
        keywords[label] = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, str) or not entry.strip():
                raise ValueError(f"{where}: labels.{name}[{i}] must be a non-empty string")
            normalized = normalize_text(entry)
            if not normalized:
                raise ValueError(
                    f"{where}: labels.{name}[{i}] must keep a letter or digit "
                    f"after normalization, got {entry!r}"
                )
            keywords[label].append((label, f" {normalized} ", f"{name.lower()}:{entry}"))
    return RuleSet(
        flight_number=flight_number,
        keywords=tuple(kw for label in PRECEDENCE for kw in keywords[label]),
    )


def load_rules(path: str) -> RuleSet:
    return parse_rules(read_json(path, "rules file"), f"rules file {path}")


@lru_cache(maxsize=1)
def default_rules() -> RuleSet:
    # pkgutil, not importlib.resources, whose import alone costs 20-35 ms.
    text = pkgutil.get_data(__package__, "data/default_rules.json")
    return parse_rules(json.loads(text), "default rules")


def _match(text: str, rules: RuleSet) -> tuple[Label, str]:
    """(label, rule id) of normalized text. As the text holds only [a-z0-9]
    and single spaces, a keyword matches as a whole word exactly when its
    space-padded form is a substring of the space-padded text."""
    padded = f" {text} "
    for label, keyword, rule in rules.keywords:
        if keyword in padded and (label is not _ASSIGNED or rules.flight_number.search(text)):
            return label, rule
    return _MENTIONED, FALLBACK_RULE


def classify(comment: str, rules: RuleSet | None = None) -> tuple[Label, str]:
    """Label one comment; returns (label, rule id of the match).

    Rule ids are '<label>:<keyword>' or 'fallback'. Every comment that is a
    str and not blank receives exactly one label; anything else is a
    ValueError.
    """
    if not isinstance(comment, str) or not comment.strip():
        raise ValueError(f"comment must be non-empty text, got {comment!r}")
    if rules is None:
        rules = default_rules()
    return _match(normalize_text(comment), rules)


def classify_corpus(
    comments: Sequence[str], rules: RuleSet | None = None
) -> tuple[list[Match], LabelCounts]:
    """Label every comment, preserving input order, and tally the labels.

    Each distinct comment is normalized and matched once. Every entry of the
    returned list is one of the `Match` values shared by all rows, one per
    rule, so the list holds no per-row object."""
    if rules is None:
        rules = default_rules()
    shared = {rule: Match(label, rule) for label, _, rule in rules.keywords}
    shared[FALLBACK_RULE] = Match(Label.MENTIONED, FALLBACK_RULE)
    match_of = {}
    # Tallied by rule id, a str: hashing a Label goes through Enum.__hash__.
    by_rule = dict.fromkeys(shared, 0)
    for comment, n in Counter(comments).items():
        rule = _match(normalize_text(comment), rules)[1]
        match_of[comment] = shared[rule]
        by_rule[rule] += n
    tally = dict.fromkeys(Label, 0)
    for rule, n in by_rule.items():
        tally[shared[rule].label] += n
    counts = LabelCounts(**{f"n_{label.name.lower()}": n for label, n in tally.items()})
    return list(map(match_of.__getitem__, comments)), counts


def estimate_params(counts: LabelCounts) -> tuple[float, float]:
    """(p_accept, p_success) ratio estimates from label counts.

    p_accept = (requested + failed) / (requested + failed + rejected);
    p_success = requested / (requested + failed). Computed in exact
    rational arithmetic before conversion to float.
    """
    committed = counts.n_requested + counts.n_failed
    offered = committed + counts.n_rejected
    if offered == 0 or committed == 0:
        raise InsufficientData(
            "need n_requested + n_failed > 0 to calibrate the chain "
            f"(got requested={counts.n_requested}, failed={counts.n_failed}, "
            f"rejected={counts.n_rejected})"
        )
    p_accept = float(Fraction(committed, offered))
    p_success = float(Fraction(counts.n_requested, committed))
    return p_accept, p_success


def calibrated_steady_state(counts: LabelCounts, g_grid) -> np.recarray:
    """Sweep records (SWEEP_DTYPE, one per p_good in ascending order) over a
    weather-reliability grid, with acceptance and success probabilities
    estimated from the counts, all solved in one `steady_state` call. The
    grid is checked before the counts; NonUniqueStationary is raised if any
    chain on it has two closed classes, so every status is 'ok'."""
    g_values = _validate_grid(g_grid, "p_good")
    p_accept, p_success = estimate_params(counts)
    pi = steady_state(g_values, p_accept, p_success)
    return sweep_records(g_values, p_accept, p_success, pi, True)


CORPUS_CSV_HEADER = ["timestamp", "facility", "comment"]
LABELED_CSV_HEADER = ["timestamp", "facility", "comment", "label", "rule"]


# An offset sign or `Z` that follows anything but a digit, or follows a run
# of an odd number of digits that is not a fraction. On Python 3.10 to 3.13
# `datetime.fromisoformat` skips one character before the offset, a digit
# included, so "00:00:00x+00:00", "00:00:001+00:00" and "00:001+00:00" would
# all pass as "00:00:00+00:00". Every clock field is two digits, and only a
# fraction (after "." or ",") may have any number.
_STRAY_BEFORE_OFFSET = re.compile(r"(?<![0-9])[-+Z]|(?<![0-9.,])(?:[0-9]{2})*[0-9][-+Z]")


def _timestamp_text(text: str) -> str:
    """An ISO-8601 timestamp (`Z` allowed for UTC) as `datetime.isoformat()`
    prints it; ValueError if it does not parse, or if its offset does not
    follow a clock field of two digits or a fraction. About 2 us a call."""
    if _STRAY_BEFORE_OFFSET.search(text):
        raise ValueError(f"the offset of {text!r} does not follow a whole clock field")
    return datetime.fromisoformat(text.replace("Z", "+00:00")).isoformat()


# `YYYY-MM-DDTHH:MM:SS+hh:mm` and the "\n" that ends it in a joined block,
# as a byte template: a byte less the template's may be at most the span,
# which is 9 where the template has "0" (a digit), 2 at the sign ("+", ","
# or "-"; "," is refused apart) and 0 at every other separator.
_STRICT = np.frombuffer(b"0000-00-00T00:00:00+00:00\n", dtype=np.uint8)
_STRICT_SPAN = np.where(_STRICT == ord("0"), 9, 0).astype(np.uint8)
_STRICT_SPAN[19] = ord("-") - ord("+")
# The tens and units digits of the nine two-digit fields: century, year of
# the century, month, day, hour, minute, second, offset hours and minutes.
_TENS = np.array([0, 2, 5, 8, 11, 14, 17, 20, 23])
_UNITS = _TENS + 1
# The days of each month by its number, 0 for a number that is no month.
_MONTH_DAYS = np.zeros(256, dtype=np.uint8)
_MONTH_DAYS[1:13] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
# The largest hour, minute, second, offset hours and offset minutes.
_CLOCK_MAX = np.array([23, 59, 59, 23, 59], dtype=np.uint8)


def _strict_rows(rows: np.ndarray) -> np.ndarray:
    """A bool per row of `rows` (uint8, one timestamp of 25 bytes and "\n"
    a row): True where it is the text `isoformat()` prints for the time it
    names, that is `YYYY-MM-DDTHH:MM:SS±hh:mm` with year 1 to 9999, a day
    of its month (leap years counted), a clock time, and an offset under
    24 hours that is not written `-00:00`."""
    digits = rows - _STRICT
    ok = (digits <= _STRICT_SPAN).all(axis=1) & (rows[:, 19] != ord(","))
    fields = digits[:, _TENS] * np.uint8(10) + digits[:, _UNITS]
    century, year, month, day = fields[:, :4].T
    leap = (year % 4 == 0) & ((year != 0) | (century % 4 == 0))
    ok &= (century | year) != 0
    ok &= (day != 0) & (day <= _MONTH_DAYS[month] + (leap & (month == 2)))
    ok &= (fields[:, 4:] <= _CLOCK_MAX).all(axis=1)
    ok &= (rows[:, 19] == ord("+")) | (fields[:, 7:] != 0).any(axis=1)
    return ok


def _strict_stamps(block: list[str]) -> np.ndarray:
    """A bool per timestamp of `block`: True where it is already the text
    `isoformat()` prints for it (see `_strict_rows`).

    The block is joined by "\n" into one byte array, a character outside
    ASCII becoming one "?". If it is as long as 26 bytes a timestamp, it is
    read as rows of 26 bytes; should every row pass, every timestamp is 25
    characters long, since each "\n" that ends one must then fall at the end
    of a row (none is allowed inside one). Otherwise only the timestamps of
    25 characters are checked, each taken from where the lengths put it."""
    n = len(block)
    data = np.frombuffer(("\n".join(block) + "\n").encode("ascii", "replace"), dtype=np.uint8)
    if data.size == 26 * n:
        ok = _strict_rows(data.reshape(n, 26))
        if ok.all():
            return ok
    lengths = np.fromiter(map(len, block), dtype=np.intp, count=n)
    ok = lengths == 25
    starts = np.cumsum(lengths + 1)[ok] - 26
    ok[ok] = _strict_rows(data[starts[:, None] + np.arange(26)])
    return ok


def _timestamp_texts(stamps: list[str]) -> int:
    """Put every timestamp of `stamps`, in place, into the text
    `isoformat()` prints for it, one block of `BLOCK_ROWS` at a time: one
    already in that form (`_strict_stamps`) is kept as it is, and every
    other goes through `_timestamp_text`. Returns the index of the first
    that does not parse, stopping there, or len(stamps) if all do."""
    for start in range(0, len(stamps), BLOCK_ROWS):
        block = stamps[start : start + BLOCK_ROWS]
        for i in np.flatnonzero(~_strict_stamps(block)).tolist():
            try:
                stamps[start + i] = _timestamp_text(block[i])
            except ValueError:
                return start + i
    return len(stamps)


def _record_line(path: str, index: int) -> int:
    """The line of the corpus CSV at `path` on which its record `index`
    starts, counting from 0 the records after the header that are not blank
    lines; or, if the `csv` module refuses the text before that record, the
    line on which the record it refuses starts."""
    line = 1
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        with contextlib.suppress(csv.Error):
            next(reader)
            line = reader.line_num + 1
            for row in reader:
                if row:
                    if index == 0:
                        break
                    index -= 1
                line = reader.line_num + 1
    return line


def _undecodable_line(path: str) -> int:
    """The number of the first line of `path` that is not valid UTF-8."""
    with open(path, "rb") as handle:
        for number, raw in enumerate(handle, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return number
    return 0


def read_corpus_csv(path: str) -> LogCorpus:
    """Read a `timestamp,facility,comment` CSV (RFC 4180 quoting), with or
    without a leading byte-order mark, into columns. Errors are ValueErrors
    naming the line on which the bad record starts (for text that is not
    UTF-8, the line holding it), a field over `csv.field_size_limit()`
    included: that limit is global, so not raised.

    The rows are read first, each timestamp as its text; the timestamps
    and comments are then checked column by column (`_timestamp_texts`).
    The first bad record in file order is the one reported, and its line
    is found by reading the file again."""
    corpus = LogCorpus([], [], [])
    timestamps, facilities, comments = corpus
    # Why the reading stopped before the end, if it did, and the line to
    # name when that line is not the one of the record after the last read.
    stop, stop_line = None, None
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file, expected header {CORPUS_CSV_HEADER}")
            if header and header[0].startswith("\ufeff"):
                # A byte-order mark, as spreadsheet exports write one.
                header[0] = header[0][1:]
            if header != CORPUS_CSV_HEADER:
                raise ValueError(f"{path}: expected header {CORPUS_CSV_HEADER}, got {header}")
            for row in reader:
                if len(row) == 3:
                    stamp, facility, comment = row
                    timestamps.append(stamp)
                    facilities.append(facility)
                    comments.append(comment)
                elif row:
                    stop = f"expected 3 fields, got {len(row)}"
                    break
        except csv.Error as exc:
            stop = str(exc)
        except UnicodeDecodeError as exc:
            stop, stop_line = f"not valid UTF-8 ({exc.reason})", _undecodable_line(path)
    parsed = _timestamp_texts(timestamps)
    if not all(map(str.strip, comments)):
        blank = next(i for i, comment in enumerate(comments) if not comment.strip())
        if blank < parsed:
            raise ValueError(
                f"{path}: line {_record_line(path, blank)}: comment must be non-empty after trimming"
            )
    if parsed < len(timestamps):
        raise ValueError(
            f"{path}: line {_record_line(path, parsed)}: "
            f"timestamp {timestamps[parsed]!r} is not ISO-8601"
        )
    if stop is not None:
        raise ValueError(f"{path}: line {stop_line or _record_line(path, len(timestamps))}: {stop}")
    return corpus


def _csv_fields(texts) -> dict[str, str]:
    """Each of `texts` mapped to itself as one RFC 4180 field: wrapped in
    quotes, each quote doubled, if it holds a comma, a quote, CR or LF;
    otherwise as it is. (One comprehension: a function call per text
    costs about a tenth more.)"""
    return {
        text: '"' + text.replace('"', '""') + '"'
        if "," in text or '"' in text or "\n" in text or "\r" in text
        else text
        for text in texts
    }


def labeled_to_csv(corpus: LogCorpus, labeled: Sequence[Match]) -> Iterator[str]:
    """The corpus columns followed by each row's label and rule, as CSV:
    the header line, then the rows in text blocks of at most `BLOCK_ROWS`
    lines.

    Each distinct facility, comment and match is turned into field text
    once, here, and columns of unequal length are a ValueError here too;
    each block is then joined from those texts as it is taken, so the
    columns must not change until the last block is. Timestamps are
    `isoformat()` text, which never needs quotes."""
    timestamps, facilities, comments = corpus
    lengths = {len(timestamps), len(facilities), len(comments), len(labeled)}
    if len(lengths) != 1:
        raise ValueError(
            f"columns of unequal length: {len(timestamps)} timestamps, "
            f"{len(facilities)} facilities, {len(comments)} comments, {len(labeled)} labels"
        )
    facility_text = {key: f",{text}," for key, text in _csv_fields(set(facilities)).items()}
    comment_text = _csv_fields(set(comments))
    # Rows with one rule share one Match, so matches are told apart by
    # identity: hashing a Match hashes its Label, a Python-level call.
    matches = dict(zip(map(id, labeled), labeled))
    rule_text = _csv_fields({match.rule for match in matches.values()})
    match_text = {
        key: f",{match.label.value},{rule_text[match.rule]}\n" for key, match in matches.items()
    }

    def blocks() -> Iterator[str]:
        yield ",".join(LABELED_CSV_HEADER) + "\n"
        for start in range(0, len(timestamps), BLOCK_ROWS):
            rows = slice(start, start + BLOCK_ROWS)
            block = timestamps[rows]
            slots = [""] * (4 * len(block))
            slots[0::4] = block
            slots[1::4] = map(facility_text.__getitem__, facilities[rows])
            slots[2::4] = map(comment_text.__getitem__, comments[rows])
            slots[3::4] = map(match_text.__getitem__, map(id, labeled[rows]))
            yield "".join(slots)

    return blocks()


# --- synthetic corpus generation -------------------------------------------
#
# Templates are built from the rule keyword lists, so each template's label
# is known by construction. Used for fixtures and larger stress corpora; the
# real log corpus is not distributable.

_FIXES = ("ELIOT", "WHITE", "GAYEL", "NEION", "MERIT", "COATE", "BAYYS", "GREKI")
_AIRLINES = ("UAL", "DAL", "AAL", "SWA", "JBU", "RPA", "FDX", "EJA")
_FACILITIES = ("ZNY", "ZDC", "ZOB", "ZBW", "N90", "PHL", "ZID", "ZTL")

_TEMPLATES: dict[Label, tuple[str, ...]] = {
    Label.ASSIGNED: (
        "{flight} assigned as pathfinder, released via {fix} gate",
        "{flight} approved to probe the {fix} gate",
        "pathfinder {flight} released on course to {fix}",
        "{flight} assigned pathfinder duties for {fix}",
    ),
    Label.REQUESTED: (
        "asking for pathfinder at {fix}",
        "requesting pathfinder through the {fix} gate",
        "can we get one through {fix}",
        "requesting {flight} as pathfinder for {fix}",
    ),
    Label.REJECTED: (
        "pathfinder declined by company",
        "no pathfinder available this hour",
        "still waiting on pathfinder decision from {facility}",
        "pathfinder not available until tops drop below 350",
        "{flight} declined the pathfinder offer",
    ),
    Label.FAILED: (
        "pathfinder not good, tops still building over {fix}",
        "pathfinder didn't make it through the {fix} gate",
        "{flight} deviated south of {fix}, ride reported moderate",
        "pathfinder {flight} didn't make it, returning to the fix",
    ),
    Label.MENTIONED: (
        "pathfinder ops possible later today",
        "discussed pathfinder options on the hotline with {facility}",
        "weather improving, pathfinder candidates under review",
        "pathfinder coordination with {facility} ongoing",
        "may try a pathfinder once the line moves east of {fix}",
    ),
}

_LABEL_WEIGHTS = {
    Label.MENTIONED: 0.35,
    Label.ASSIGNED: 0.25,
    Label.REQUESTED: 0.18,
    Label.REJECTED: 0.13,
    Label.FAILED: 0.09,
}


def generate_corpus(size: int, seed: int) -> list[tuple[LogRecord, Label]]:
    """Sample a synthetic labeled corpus; deterministic in (size, seed).

    Every random column is drawn as one array, the timestamps too (whole
    minutes from 2022-12-22T00:00 UTC, strictly increasing); only the
    comments are built row by row."""
    from .simulate import STREAM_CORPUS, make_rng

    size = integer("size", size, 1)
    rng = make_rng(seed, STREAM_CORPUS)
    labels = tuple(_LABEL_WEIGHTS)
    weights = np.array([_LABEL_WEIGHTS[label] for label in labels])
    label_idx = rng.choice(len(labels), size=size, p=weights / weights.sum())
    templates = [_TEMPLATES[label] for label in labels]
    columns = (
        label_idx,
        rng.integers(np.array([len(t) for t in templates])[label_idx]),
        rng.integers(len(_AIRLINES), size=size),
        rng.integers(1, 10000, size=size),
        rng.integers(len(_FIXES), size=size),
        rng.integers(len(_FACILITIES), size=size),
        rng.integers(len(_FACILITIES), size=size),
    )
    minutes = np.datetime64("2022-12-22T00:00") + np.cumsum(rng.integers(5, 600, size=size))
    stamps = np.char.add(np.datetime_as_string(minutes, unit="s"), "+00:00").tolist()
    out = []
    for label_i, template_i, airline, number, fix, named, facility, stamp in zip(
        *(column.tolist() for column in columns), stamps
    ):
        comment = templates[label_i][template_i].format(
            flight=f"{_AIRLINES[airline]}{number}",
            fix=_FIXES[fix],
            facility=_FACILITIES[named],
        )
        out.append((LogRecord(stamp, _FACILITIES[facility], comment), labels[label_i]))
    return out
