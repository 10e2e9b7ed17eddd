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
labels.

`generate_corpus` draws seeded synthetic corpora whose labels are known by
construction, for fixtures and stress tests.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import re
from collections import Counter
from dataclasses import dataclass, fields
from datetime import datetime
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from operator import attrgetter
from typing import NamedTuple, Sequence

import numpy as np

from .chain import _validate_grid, steady_state, sweep_records
from .errors import InsufficientData, integer, json_object
from .fileio import read_json
from .simulate import STREAM_CORPUS, make_rng


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

    ASCII text, the common case once curly apostrophes are gone, goes
    through a byte table; other text through the regex."""
    t = text.lower()
    if not t.isascii():
        t = t.replace("’", "").replace("‘", "")
    if t.isascii():
        t = t.encode().translate(_ASCII_TABLE, b"'").decode()
    else:
        t = _NON_ALNUM.sub(" ", t.replace("'", ""))
    return " ".join(t.split())


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
    try:
        flight_number = re.compile(pattern_src)
    except re.error as exc:
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
    text = resources.files("pathfinder_ops").joinpath("data/default_rules.json").read_text()
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
    tally = dict.fromkeys(Label, 0)
    for comment, n in Counter(comments).items():
        match = match_of[comment] = shared[_match(normalize_text(comment), rules)[1]]
        tally[match.label] += n
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
    g_values = _validate_grid(g_grid, "p_good", low_open=False)
    p_accept, p_success = estimate_params(counts)
    pi = steady_state(g_values, p_accept, p_success)
    return sweep_records(g_values, p_accept, p_success, pi, True)


CORPUS_CSV_HEADER = ["timestamp", "facility", "comment"]
LABELED_CSV_HEADER = ["timestamp", "facility", "comment", "label", "rule"]


# A timestamp in this form (whole seconds, an offset of +HH:MM) that parses
# is exactly what `isoformat()` prints for it, so it is kept as it is; the
# call costs about 2 us a row.
_ISOFORMAT_SECONDS = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}\+[0-9]{2}:[0-9]{2}"
)


def _timestamp_text(text: str) -> str:
    """An ISO-8601 timestamp (`Z` allowed for UTC) as `datetime.isoformat()`
    prints it; ValueError if it does not parse."""
    text = text.replace("Z", "+00:00")
    parsed = datetime.fromisoformat(text)
    return text if _ISOFORMAT_SECONDS.fullmatch(text) else parsed.isoformat()


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
    """Read a `timestamp,facility,comment` CSV (RFC 4180 quoting) into
    columns. Errors are ValueErrors naming the line on which the bad record
    starts (for text that is not UTF-8, the line holding it), a field over
    `csv.field_size_limit()` included: that limit is global, so not raised."""
    corpus = LogCorpus([], [], [])
    timestamps, facilities, comments = corpus
    line = 1
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file, expected header {CORPUS_CSV_HEADER}")
            if header != CORPUS_CSV_HEADER:
                raise ValueError(f"{path}: expected header {CORPUS_CSV_HEADER}, got {header}")
            line = reader.line_num + 1
            for row in reader:
                if row:
                    if len(row) != 3:
                        raise ValueError(f"{path}: line {line}: expected 3 fields, got {len(row)}")
                    stamp, facility, comment = row
                    try:
                        timestamps.append(_timestamp_text(stamp))
                    except ValueError:
                        raise ValueError(
                            f"{path}: line {line}: timestamp {stamp!r} is not ISO-8601"
                        ) from None
                    if not comment.strip():
                        raise ValueError(
                            f"{path}: line {line}: comment must be non-empty after trimming"
                        )
                    facilities.append(facility)
                    comments.append(comment)
                line = reader.line_num + 1
        except csv.Error as exc:
            raise ValueError(f"{path}: line {line}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"{path}: line {_undecodable_line(path)}: not valid UTF-8 ({exc.reason})"
            ) from None
    return corpus


# `_value_` is the plain attribute behind `Label.value`, read here without
# the descriptor, which costs about 0.2 us a row.
_label_text, _rule = attrgetter("label._value_"), attrgetter("rule")


def labeled_to_csv(corpus: LogCorpus, labeled: Sequence[Match]) -> str:
    """The corpus columns followed by each row's label and rule, as CSV."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(LABELED_CSV_HEADER)
    writer.writerows(
        zip(*corpus, map(_label_text, labeled), map(_rule, labeled), strict=True)
    )
    return buffer.getvalue()


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
