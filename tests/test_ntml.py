import csv
import json
import os
import tempfile
from datetime import datetime
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathfinder_ops import (
    InsufficientData,
    Label,
    LabelCounts,
    LogCorpus,
    LogRecord,
    Match,
    NonUniqueStationary,
    calibrated_steady_state,
    classify,
    classify_corpus,
    default_rules,
    estimate_params,
    generate_corpus,
    labeled_to_csv,
    read_corpus_csv,
    stationary,
    sweep_steady_state,
)
import pathfinder_ops.ntml as ntml_module
from pathfinder_ops.chain import SWEEP_DTYPE
from pathfinder_ops.cli import main
from pathfinder_ops.ntml import PRECEDENCE, RuleSet, _timestamp_text, normalize_text, parse_rules

from oracles import oracle_labeled_csv, regex_classify, regex_normalize

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "fixture_corpus.csv")

DEFAULT_RULES_DOC = json.loads(
    resources.files("pathfinder_ops").joinpath("data/default_rules.json").read_text()
)
PERMUTED_RULES_DOC = {
    "flight_number_pattern": "\\b[a-z]{2,3}[0-9]{1,4}\\b",
    "labels": {
        "Failed": ["didn't make it", "deviated", "not good"],
        "Rejected": ["not available", "still waiting", "no pathfinder", "declined"],
        "Assigned": ["released", "approved", "assigned"],
        "Requested": ["requesting", "can we get one", "asking for pathfinder"],
    },
}

# ASCII plus the characters where normalization is easiest to get wrong:
# curly apostrophes, Unicode whitespace (NEL, NBSP, em space, file
# separator), characters whose lowercase is ASCII or longer (Kelvin sign,
# dotted capital I), characters with no lowercase mapping to [a-z] (sharp s,
# the fi ligature) and Arabic-Indic digits.
SPECIAL_CHARS = "’‘\x85\xa0\u2003\x1c\u212aİßﬁ" + "".join(map(chr, range(0x660, 0x66A)))
CHARS = st.one_of(st.characters(max_codepoint=127), st.sampled_from(SPECIAL_CHARS))
FRAGMENTS = sorted(
    {kw for words in DEFAULT_RULES_DOC["labels"].values() for kw in words}
    | {"DIDN’T MAKE IT", "didn‘t", "make", "Not Good", "no", "pathfinder", "get one"}
    | {"UAL1234", "dal9", "jbu77", "\u212aL12", "ab12345", "1234"}
)
COMMENTS = st.lists(
    st.tuples(
        st.one_of(st.sampled_from(FRAGMENTS), st.text(CHARS, max_size=3)),
        st.text(CHARS, max_size=2),
    ),
    min_size=1,
    max_size=8,
).map(lambda pairs: "".join(part + sep for part, sep in pairs)).filter(str.strip)

def load_fixture():
    with open(FIXTURE, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert len(rows) == 50
    records = [LogRecord(r["timestamp"], r["facility"], r["comment"]) for r in rows]
    labels = [Label(r["label"]) for r in rows]
    return records, labels


def comments_of(records):
    return [rec.comment for rec in records]


def write_corpus(path, rows):
    """Write `timestamp,facility,comment` rows as a corpus CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "facility", "comment"])
        writer.writerows(rows)
    return str(path)


class TestNormalization:
    def test_lowercases_and_collapses(self):
        assert normalize_text("  UAL1234   ASSIGNED\tas Pathfinder! ") == (
            "ual1234 assigned as pathfinder"
        )

    def test_apostrophes_removed(self):
        assert normalize_text("didn’t make it, DIDN'T") == "didnt make it didnt"

    def test_non_ascii_text(self):
        assert normalize_text("\u212aL12\xa0İ ß-ﬁ’x ٣") == "kl12 i x"

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(CHARS))
    def test_matches_regex_reference(self, text):
        assert normalize_text(text) == regex_normalize(text)

    def test_matches_regex_reference_on_every_code_point(self):
        # Letters around each code point tell a dropped character from a space.
        text = "a".join(map(chr, range(0x110000)))
        assert normalize_text(text) == regex_normalize(text)


class TestClassify:
    def test_assigned_needs_flight_and_action_term(self):
        label, rule = classify("UAL1234 assigned as pathfinder, released via gate")
        assert label is Label.ASSIGNED
        assert rule == "assigned:assigned"

    def test_failure_phrases(self):
        label, rule = classify("pathfinder didn't make it, deviated north")
        assert label is Label.FAILED
        assert rule == "failed:didn't make it"

    def test_plain_mention_falls_back(self):
        label, rule = classify("pathfinder ops possible later today")
        assert label is Label.MENTIONED
        assert rule == "fallback"

    def test_failure_outranks_assignment(self):
        label, _ = classify("UAL1234 assigned but didn't make it")
        assert label is Label.FAILED

    def test_rejection_outranks_assignment(self):
        label, _ = classify("DAL55 declined, was approved earlier")
        assert label is Label.REJECTED

    def test_action_word_without_flight_number_is_not_assignment(self):
        label, _ = classify("pathfinder assigned earlier today per log review")
        assert label is Label.MENTIONED

    def test_flight_number_without_action_word_is_not_assignment(self):
        label, _ = classify("UAL1234 holding short, pathfinder under discussion")
        assert label is Label.MENTIONED

    def test_case_and_whitespace_insensitive(self):
        upper = classify("UAL1234 ASSIGNED as Pathfinder")
        lower = classify("ual1234   assigned as pathfinder")
        assert upper == lower

    def test_keyword_order_within_category_never_changes_label(self):
        permuted = parse_rules(PERMUTED_RULES_DOC)
        records, _ = load_fixture()
        for rec in records:
            default_label, _ = classify(rec.comment)
            permuted_label, _ = classify(rec.comment, permuted)
            assert default_label is permuted_label

    def test_blank_or_non_text_comment_rejected(self):
        for comment in ["   ", "", None, 5, b"pathfinder"]:
            with pytest.raises(ValueError):
                classify(comment)

    def test_keyword_matches_whole_words_only(self):
        assert classify("UAL1 reassigned, unreleased")[0] is Label.MENTIONED
        assert classify("UAL1 assigned2 no-pathfinders")[0] is Label.MENTIONED
        assert classify("no.pathfinder!") == (Label.REJECTED, "rejected:no pathfinder")

    def test_flight_pattern_searched_only_when_an_assigned_keyword_matches(self):
        searched = []

        class Spy:
            def search(self, text):
                searched.append(text)
                return None

        rules = RuleSet(flight_number=Spy(), keywords=default_rules().keywords)
        assert classify("UAL1234 requesting pathfinder", rules)[0] is Label.REQUESTED
        assert classify("UAL1234 declined, approved earlier", rules)[0] is Label.REJECTED
        assert searched == []
        assert classify("UAL1234 Approved, requesting", rules)[0] is Label.REQUESTED
        assert searched == ["ual1234 approved requesting"]

    @settings(max_examples=200, deadline=None)
    @given(comment=COMMENTS)
    def test_matches_regex_reference_under_default_rules(self, comment):
        label, rule = classify(comment)
        assert (label.value, rule) == regex_classify(comment, DEFAULT_RULES_DOC)

    @settings(max_examples=200, deadline=None)
    @given(comment=COMMENTS)
    def test_matches_regex_reference_under_permuted_rules(self, comment):
        label, rule = classify(comment, parse_rules(PERMUTED_RULES_DOC))
        assert (label.value, rule) == regex_classify(comment, PERMUTED_RULES_DOC)

    def test_classify_corpus_matches_classify(self):
        records, _ = load_fixture()
        labeled, counts = classify_corpus(comments_of(records))
        pairs = [classify(rec.comment) for rec in records]
        assert [(lr.label, lr.rule) for lr in labeled] == pairs
        assert counts == LabelCounts(
            **{f"n_{want.name.lower()}": sum(label is want for label, _ in pairs) for want in Label}
        )


class TestCorpus:
    def test_fixture_corpus_full_agreement(self):
        records, expected = load_fixture()
        labeled, counts = classify_corpus(comments_of(records))
        assert [lr.label for lr in labeled] == expected
        assert counts.total() == 50

    def test_empty_corpus(self):
        labeled, counts = classify_corpus([])
        assert labeled == []
        assert counts.total() == 0

    def test_order_preserved_and_stateless(self):
        labeled, counts = classify_corpus(["requesting pathfinder through WHITE"] * 3)
        assert [lr.label for lr in labeled] == [Label.REQUESTED] * 3
        assert counts.n_requested == 3

    def test_counts_conserve_corpus_size(self):
        records, _ = load_fixture()
        _, counts = classify_corpus(comments_of(records))
        assert counts.total() == len(records)

    def test_generated_corpus_matches_intended_labels(self):
        pairs = generate_corpus(400, seed=20240601)
        labeled, counts = classify_corpus([rec.comment for rec, _ in pairs])
        assert [lr.label for lr in labeled] == [label for _, label in pairs]
        assert counts.total() == 400

    def test_each_distinct_comment_is_normalized_once(self, monkeypatch):
        seen = []
        normalize = ntml_module.normalize_text
        monkeypatch.setattr(
            ntml_module, "normalize_text", lambda text: seen.append(text) or normalize(text)
        )
        comments = ["requesting pathfinder", "pathfinder declined", "requesting pathfinder"]
        labeled, counts = classify_corpus(comments * 2)
        assert sorted(seen) == ["pathfinder declined", "requesting pathfinder"]
        assert [m.label for m in labeled] == [Label.REQUESTED, Label.REJECTED, Label.REQUESTED] * 2
        assert (counts.n_requested, counts.n_rejected, counts.total()) == (4, 2, 6)

    def test_rows_share_one_match_per_rule(self):
        rules = default_rules()
        pairs = generate_corpus(10_000, seed=5)
        labeled, counts = classify_corpus([rec.comment for rec, _ in pairs], rules)
        assert len(labeled) == 10_000 == counts.total()
        assert all(type(m) is Match for m in labeled)
        assert len({id(m) for m in labeled}) <= len(rules.keywords) + 1
        assert [(m.label, m.rule) for m in labeled] == [classify(rec.comment, rules) for rec, _ in pairs]

    def test_generator_deterministic(self):
        a = generate_corpus(50, seed=9)
        b = generate_corpus(50, seed=9)
        assert a == b

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1])
    def test_generated_labels_agree_with_classify(self, seed):
        pairs = generate_corpus(2000, seed)
        assert pairs == generate_corpus(2000, seed)
        assert [classify(rec.comment)[0] for rec, _ in pairs] == [label for _, label in pairs]
        stamps = [rec.timestamp for rec, _ in pairs]
        assert all(a < b for a, b in zip(stamps, stamps[1:]))
        # ISO text as a read corpus holds it, so text order is time order.
        assert all(_timestamp_text(stamp) == stamp for stamp in stamps)
        assert all(stamp.endswith(":00+00:00") for stamp in stamps)
        assert {label for _, label in pairs} == set(Label)

    def test_generated_rows_are_text(self):
        (first, label), *_ = generate_corpus(20_000, seed=7)
        assert first == LogRecord(
            "2022-12-22T05:08:00+00:00", "ZNY", "SWA8659 assigned pathfinder duties for BAYYS"
        )
        assert label is Label.ASSIGNED

    def test_generator_seeds_give_different_corpora(self):
        assert generate_corpus(50, seed=9) != generate_corpus(50, seed=10)


class TestEstimateParams:
    def test_reverse_engineered_counts_hit_reported_values(self):
        counts = LabelCounts(n_requested=87, n_failed=13, n_rejected=23)
        p_accept, p_success = estimate_params(counts)
        assert p_accept == float(Fraction(100, 123))
        assert p_success == 0.87
        assert round(p_accept, 2) == 0.81

    def test_no_rejections_gives_full_acceptance(self):
        counts = LabelCounts(n_requested=10, n_failed=2, n_rejected=0)
        p_accept, _ = estimate_params(counts)
        assert p_accept == 1.0

    def test_no_failures_gives_full_success(self):
        counts = LabelCounts(n_requested=10, n_failed=0, n_rejected=3)
        _, p_success = estimate_params(counts)
        assert p_success == 1.0

    def test_zero_denominators_raise(self):
        with pytest.raises(InsufficientData):
            estimate_params(LabelCounts())
        with pytest.raises(InsufficientData):
            estimate_params(LabelCounts(n_rejected=5, n_mentioned=10))

    @settings(max_examples=100, deadline=None)
    @given(
        req=st.integers(0, 500),
        fail=st.integers(0, 500),
        rej=st.integers(0, 500),
    )
    def test_estimates_bounded(self, req, fail, rej):
        counts = LabelCounts(n_requested=req, n_failed=fail, n_rejected=rej)
        if req + fail == 0:
            with pytest.raises(InsufficientData):
                estimate_params(counts)
            return
        p_accept, p_success = estimate_params(counts)
        assert 0.0 <= p_accept <= 1.0
        assert 0.0 <= p_success <= 1.0


class TestCalibratedSteadyState:
    COUNTS = LabelCounts(n_requested=87, n_failed=13, n_rejected=23)

    def test_low_weather_endpoint(self):
        (record,) = calibrated_steady_state(self.COUNTS, [0.1])
        assert record.p_good == 0.1 and record.status == "ok"
        assert record.pi[0] == pytest.approx(0.75, abs=0.01)
        assert record.pi[3] == pytest.approx(0.07, abs=0.01)

    def test_high_weather_endpoint(self):
        (record,) = calibrated_steady_state(self.COUNTS, [0.9])
        assert record.pi[0] == pytest.approx(0.09, abs=0.005)
        assert record.pi[3] == pytest.approx(0.72, abs=0.005)

    def test_forced_unit_counts_reduce_to_hand_solved_chain(self):
        counts = LabelCounts(n_requested=10, n_failed=0, n_rejected=0)
        (record,) = calibrated_steady_state(counts, [0.5])
        np.testing.assert_allclose(record.pi, [1 / 3, 1 / 6, 1 / 6, 1 / 3], atol=1e-12)

    def test_grid_sorted_and_nonempty(self):
        records = calibrated_steady_state(self.COUNTS, [0.9, 0.1, 0.5])
        assert records["p_good"].tolist() == [0.1, 0.5, 0.9]
        with pytest.raises(ValueError, match="grid must be non-empty"):
            calibrated_steady_state(self.COUNTS, [])

    def test_grid_checked_before_counts(self):
        with pytest.raises(ValueError, match="p_good grid values must lie in"):
            calibrated_steady_state(LabelCounts(n_mentioned=5), [0.5, 1.5])

    def test_insufficient_data_propagates(self):
        with pytest.raises(InsufficientData):
            calibrated_steady_state(LabelCounts(n_mentioned=5), [0.5])

    def test_whole_grid_in_one_solve(self, monkeypatch):
        solve, calls = ntml_module.steady_state, []
        monkeypatch.setattr(ntml_module, "steady_state", lambda *args: calls.append(args) or solve(*args))
        g_grid = [round(0.1 * i, 10) for i in range(1, 10)]
        records = calibrated_steady_state(self.COUNTS, g_grid)
        assert len(calls) == 1 and len(records) == 9
        p_accept, p_success = estimate_params(self.COUNTS)
        pi, unique = stationary(g_grid, p_accept, p_success)
        assert unique.all()
        assert records.dtype == SWEEP_DTYPE
        assert records["p_good"].tolist() == g_grid
        assert set(records["p_accept"].tolist()) == {p_accept}
        assert set(records["p_success"].tolist()) == {p_success}
        assert set(records["status"].tolist()) == {"ok"}
        np.testing.assert_array_equal(records["pi"], pi)

    def test_records_match_the_sweep_of_the_estimates(self):
        # The calibrated sweep is the plain sweep at the estimated p_accept
        # and p_success, field for field.
        g_grid = [0.0, 0.25, 1.0]
        records = calibrated_steady_state(self.COUNTS, g_grid)
        sweep = sweep_steady_state([0.25, 1.0], *([v] for v in estimate_params(self.COUNTS)))
        assert records[1:].tobytes() == sweep.tobytes()

    def test_non_unique_chain_on_the_grid_raises(self):
        # Only failed runs: p_success = 0, so g = 1 leaves two closed classes.
        with pytest.raises(NonUniqueStationary):
            calibrated_steady_state(LabelCounts(n_failed=4, n_rejected=1), [0.5, 1.0])
        (record,) = calibrated_steady_state(LabelCounts(n_failed=4, n_rejected=1), [0.0])
        np.testing.assert_array_equal(record.pi, [1.0, 0.0, 0.0, 0.0])


class TestCsvIo:
    def test_read_projected_fixture(self, tmp_path):
        # The fixture carries a ground-truth label column; the corpus reader
        # takes the strict 3-column form.
        records, _ = load_fixture()
        path = tmp_path / "corpus.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp", "facility", "comment"])
            for rec in records:
                writer.writerow([rec.timestamp, rec.facility, rec.comment])
        assert read_corpus_csv(str(path)) == LogCorpus(
            [rec.timestamp for rec in records],
            [rec.facility for rec in records],
            comments_of(records),
        )

    def test_round_trip_with_quoting(self, tmp_path):
        path = tmp_path / "corpus.csv"
        tricky = 'UAL1 assigned, "released" via gate'
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp", "facility", "comment"])
            writer.writerow(["2024-01-01T00:00:00Z", "ZNY", tricky])
        corpus = read_corpus_csv(str(path))
        assert corpus == LogCorpus(["2024-01-01T00:00:00+00:00"], ["ZNY"], [tricky])
        labeled, _ = classify_corpus(corpus.comments)
        text = labeled_to_csv(corpus, labeled)
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["timestamp", "facility", "comment", "label", "rule"]
        assert rows[1][2] == tricky
        assert rows[1][3] == "Assigned"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,comment\n2024-01-01T00:00:00Z,hello\n")
        with pytest.raises(ValueError, match="header"):
            read_corpus_csv(str(path))

    def test_bad_timestamp_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,facility,comment\nyesterday,ZNY,pathfinder maybe\n")
        with pytest.raises(ValueError, match="line 2"):
            read_corpus_csv(str(path))

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("not-a-time,ZNY,hello", "timestamp 'not-a-time' is not ISO-8601"),
            ("2024-01-02T00:00:00Z,ZNY", "expected 3 fields, got 2"),
            ('2024-01-02T00:00:00Z,ZNY," \t "', "comment must be non-empty after trimming"),
        ],
    )
    def test_error_names_the_line_the_record_starts_on(self, tmp_path, bad, message):
        # Lines 2-4 hold one record with a quoted three-line comment and
        # line 5 is blank, so the bad record starts on line 6.
        path = tmp_path / "bad.csv"
        path.write_text(
            'timestamp,facility,comment\n2024-01-01T00:00:00Z,ZNY,"one\ntwo\nthree"\n\n'
            + bad
            + "\n2024-01-03T00:00:00Z,ZNY,fine\n"
        )
        with pytest.raises(ValueError) as info:
            read_corpus_csv(str(path))
        assert str(info.value) == f"{path}: line 6: {message}"

    @pytest.mark.parametrize(
        "text, prefix",
        [
            ("time,comment\n2024-01-01T00:00:00Z,hello\n", "expected header"),
            ("timestamp,facility,comment\nx,ZNY,a,b\n", "line 2: expected 3 fields, got 4"),
            ("timestamp,facility,comment\nnot-a-time,ZNY,hello\n", "line 2: timestamp 'not-a-time'"),
            ("timestamp,facility,comment\n2024-01-01T00:00:00Z,ZNY,\n", "line 2: comment must"),
        ],
        ids=["header", "field-count", "timestamp", "empty-comment"],
    )
    def test_every_read_error_starts_with_the_path(self, tmp_path, text, prefix):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            read_corpus_csv(str(path))
        assert str(info.value).startswith(f"{path}: {prefix}")


# Whole, fractional and partial times with either separator, followed by no
# offset, `Z`, `-00:00` or an offset of whole minutes.
OFFSETS = st.integers(-24 * 60 + 1, 24 * 60 - 1).map(
    lambda m: f"{'-' if m < 0 else '+'}{abs(m) // 60:02d}:{abs(m) % 60:02d}"
)
STAMPS = st.builds(
    lambda when, spec, sep, zone: when.isoformat(sep, spec) + zone,
    st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31)),
    st.sampled_from(["auto", "seconds", "minutes", "milliseconds", "microseconds"]),
    st.sampled_from(["T", " "]),
    st.one_of(st.sampled_from(["", "Z", "+00:00", "-00:00", "+05:30"]), OFFSETS),
)


class SpyDatetime(datetime):
    """A datetime that records each isoformat() call."""

    printed = []

    def isoformat(self, *args, **kwargs):
        text = super().isoformat(*args, **kwargs)
        SpyDatetime.printed.append(text)
        return text


class TestTimestampText:
    @settings(max_examples=500, deadline=None)
    @given(text=st.one_of(STAMPS, st.text("0123456789-:+TZ. ", max_size=30)))
    def test_matches_isoformat_and_passes_through_only_its_own_text(self, text):
        try:
            expected = datetime.fromisoformat(text.replace("Z", "+00:00")).isoformat()
        except ValueError:
            with pytest.raises(ValueError):
                _timestamp_text(text)
            return
        got = _timestamp_text(text)
        assert got == expected
        if got == text:
            assert datetime.fromisoformat(text).isoformat() == text

    @pytest.mark.parametrize(
        "text, expected, printed",
        [
            ("2024-01-02T03:04:05+00:00", "2024-01-02T03:04:05+00:00", False),
            ("2024-01-02T03:04:05+05:30", "2024-01-02T03:04:05+05:30", False),
            ("2024-01-02T03:04:05Z", "2024-01-02T03:04:05+00:00", False),
            ("2024-01-02T03:04:05-00:00", "2024-01-02T03:04:05+00:00", True),
            ("2024-01-02T03:04:05-05:30", "2024-01-02T03:04:05-05:30", True),
            ("2024-01-02T03:04:05.123456+00:00", "2024-01-02T03:04:05.123456+00:00", True),
            ("2024-01-02T03:04:05.120Z", "2024-01-02T03:04:05.120000+00:00", True),
            ("2024-01-02 03:04:05+00:00", "2024-01-02T03:04:05+00:00", True),
            ("2024-01-02T03:04:05", "2024-01-02T03:04:05", True),
        ],
    )
    def test_only_the_strict_form_skips_isoformat(self, monkeypatch, text, expected, printed):
        monkeypatch.setattr(ntml_module, "datetime", SpyDatetime)
        SpyDatetime.printed.clear()
        assert _timestamp_text(text) == expected
        assert SpyDatetime.printed == ([expected] if printed else [])

    @pytest.mark.parametrize(
        "text",
        [
            "2024-13-01T00:00:00+00:00",
            "2023-02-29T00:00:00+00:00",
            "2024-01-01T24:00:00+00:00",
            "2024-01-01T00:60:00+00:00",
            "2024-01-01T00:00:00+24:00",
            "0000-01-01T00:00:00+00:00",
        ],
    )
    def test_strict_form_is_still_checked(self, text):
        with pytest.raises(ValueError):
            _timestamp_text(text)


# Comments the CSV layer must carry unchanged, beside the drawn ones: quoted
# commas, quotes, newlines and curly apostrophes.
CSV_COMMENTS = st.one_of(
    COMMENTS.filter(lambda c: "\x00" not in c),
    st.sampled_from(
        [
            'UAL12 assigned, "released" via gate',
            "requesting, pathfinder\nthrough WHITE",
            "pathfinder didn’t make it, \"again\"",
            "DAL9 approved\r\nrequesting",
            "  pathfinder ops later  ",
        ]
    ),
)
CORPUS_ROWS = st.lists(CSV_COMMENTS, min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(
        st.tuples(
            st.one_of(STAMPS, st.just("2024-06-01T12:00:00+00:00")),
            st.sampled_from(["ZNY", "N90", "Z,B", 'a"b', ""]),
            st.sampled_from(pool),
        ),
        min_size=1,
        max_size=25,
    )
)


class TestAgainstPerRecordPipeline:
    """`classify` output bytes and label tallies against the per-record
    pipeline in `oracles.oracle_labeled_csv`."""

    def check(self, corpus_path, directory):
        out = os.path.join(directory, "l.csv")
        code = main(["classify", corpus_path, "--out", out])
        text, tally = oracle_labeled_csv(corpus_path, DEFAULT_RULES_DOC)
        with open(out, "rb") as fh:
            assert fh.read() == text.encode("utf-8")
        with open(os.path.join(directory, "l.counts.json")) as fh:
            counts = json.load(fh)
        assert counts == dict(
            {f"n_{label.name.lower()}": tally[label.value] for label in Label},
            total=sum(tally.values()),
        )
        # Without requested or failed comments the chain cannot be calibrated.
        assert code == (0 if tally["Requested"] + tally["Failed"] else 3)

    def test_fixture(self, tmp_path):
        records, _ = load_fixture()
        rows = [(rec.timestamp, rec.facility, rec.comment) for rec in records]
        self.check(write_corpus(tmp_path / "corpus.csv", rows), str(tmp_path))

    def test_generated_corpus(self, tmp_path):
        pairs = generate_corpus(3000, seed=11)
        rows = [(rec.timestamp, rec.facility, rec.comment) for rec, _ in pairs]
        self.check(write_corpus(tmp_path / "corpus.csv", rows), str(tmp_path))

    @settings(max_examples=150, deadline=None)
    @given(rows=CORPUS_ROWS)
    def test_drawn_corpora(self, rows):
        with tempfile.TemporaryDirectory() as directory:
            self.check(write_corpus(os.path.join(directory, "corpus.csv"), rows), directory)


class TestRulesFile:
    def test_unknown_label_named(self):
        with pytest.raises(ValueError, match="Bogus"):
            parse_rules(
                {
                    "flight_number_pattern": "x",
                    "labels": {"Bogus": ["nope"]},
                }
            )

    def test_mentioned_takes_no_keywords(self):
        doc = json.loads(
            json.dumps(
                {
                    "flight_number_pattern": "x",
                    "labels": {
                        "Failed": ["a"],
                        "Rejected": ["b"],
                        "Assigned": ["c"],
                        "Requested": ["d"],
                        "Mentioned": ["e"],
                    },
                }
            )
        )
        with pytest.raises(ValueError, match="Mentioned"):
            parse_rules(doc)

    def test_bad_entry_indexed(self):
        doc = {
            "flight_number_pattern": "x",
            "labels": {
                "Failed": ["ok", 42],
                "Rejected": ["b"],
                "Assigned": ["c"],
                "Requested": ["d"],
            },
        }
        with pytest.raises(ValueError, match=r"Failed\[1\]"):
            parse_rules(doc)

    def test_missing_label_list_named(self):
        doc = {
            "flight_number_pattern": "x",
            "labels": {"Failed": ["a"], "Rejected": ["b"], "Assigned": ["c"]},
        }
        with pytest.raises(ValueError, match="Requested"):
            parse_rules(doc)

    def test_invalid_flight_regex_rejected(self):
        doc = {
            "flight_number_pattern": "[unclosed",
            "labels": {
                "Failed": ["a"],
                "Rejected": ["b"],
                "Assigned": ["c"],
                "Requested": ["d"],
            },
        }
        with pytest.raises(ValueError, match="flight_number_pattern"):
            parse_rules(doc)

    def test_default_rules_load(self):
        rules = default_rules()
        assert rules.keywords[0] == (Label.FAILED, " not good ", "failed:not good")
        assert [label for label, _, _ in rules.keywords] == sorted(
            (label for label, _, _ in rules.keywords), key=PRECEDENCE.index
        )

    @pytest.mark.parametrize("keyword", ["!!!", "'", "’’", " - "])
    def test_keyword_without_letter_or_digit_refused(self, keyword):
        # Such a keyword normalizes to nothing and would match every comment.
        doc = {
            "flight_number_pattern": "x",
            "labels": {
                "Failed": ["a"],
                "Rejected": ["b"],
                "Assigned": ["c"],
                "Requested": ["d", keyword],
            },
        }
        with pytest.raises(ValueError, match=r"labels\.Requested\[1\] must keep a letter or digit"):
            parse_rules(doc)
