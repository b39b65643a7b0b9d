import csv
import io
import logging
import random
import tracemalloc
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logutil import make_log
from refparse import reference_parse
from repostminer.eventlog import (
    Event,
    EventLog,
    LogSchema,
    SchemaError,
    Trace,
    dfg_from_sequences,
    parse_log,
    preprocess,
    split_by_bot_score,
    write_log,
)

EPOCH_SCHEMA = LogSchema(timestamp_format="epoch")


def parse(text, schema=LogSchema()):
    return parse_log(io.StringIO(text), schema)


class TestParse:
    def test_field_mapping(self):
        log = parse("trace_id,activity,timestamp\n123,alice,2019-01-01T00:00:00Z\n")
        assert len(log) == 1
        event = log.traces[0].events[0]
        assert event == Event("123", "alice", 1546300800)

    def test_epoch_timestamps(self):
        log = parse("trace_id,activity,timestamp\n1,a,1546300800\n", EPOCH_SCHEMA)
        assert log.traces[0].events[0].timestamp == 1546300800

    def test_out_of_order_rows_resorted(self):
        log = parse("trace_id,activity,timestamp\n1,b,20\n1,a,10\n", EPOCH_SCHEMA)
        assert log.traces[0].activities() == ("a", "b")

    def test_simultaneous_events_keep_file_order(self):
        log = parse("trace_id,activity,timestamp\n1,x,10\n1,y,10\n1,z,5\n",
                    EPOCH_SCHEMA)
        assert log.traces[0].activities() == ("z", "x", "y")

    def test_bad_timestamp_rejected_with_line_number(self, caplog):
        text = "trace_id,activity,timestamp\n1,a,10\n1,b,not-a-date\n1,c,30\n"
        with caplog.at_level(logging.WARNING):
            log = parse(text, EPOCH_SCHEMA)
        assert log.event_count() == 2
        assert any("line 3" in r.message for r in caplog.records)

    @pytest.mark.parametrize("delimiter", [";;", ""])
    def test_delimiter_must_be_one_character(self, delimiter):
        with pytest.raises(SchemaError, match="delimiter"):
            LogSchema(delimiter=delimiter)

    @pytest.mark.parametrize("delimiter", ['"', "\n", "\r"])
    def test_delimiter_cannot_be_quote_or_line_end(self, tmp_path, delimiter):
        path = tmp_path / "log.csv"
        path.write_text("trace_id,activity,timestamp\n1,a,10\n")
        with pytest.raises(SchemaError, match="delimiter"):
            parse_log(path, LogSchema(delimiter=delimiter, timestamp_format="epoch"))

    def test_missing_column_is_fatal(self):
        with pytest.raises(SchemaError, match="timestamp"):
            parse("trace_id,activity\n1,a\n")

    def test_bot_score_out_of_range_rejected(self, caplog):
        schema = LogSchema(bot_score="bot", timestamp_format="epoch")
        text = "trace_id,activity,timestamp,bot\n1,a,10,0.5\n1,b,20,1.5\n"
        with caplog.at_level(logging.WARNING):
            log = parse(text, schema)
        assert log.event_count() == 1

    def test_empty_bot_score_is_none(self):
        schema = LogSchema(bot_score="bot", timestamp_format="epoch")
        log = parse("trace_id,activity,timestamp,bot\n1,a,10,\n", schema)
        assert log.traces[0].events[0].bot_score is None

    def test_duplicate_rows_kept(self):
        log = parse("trace_id,activity,timestamp\n1,a,10\n1,a,10\n", EPOCH_SCHEMA)
        assert log.event_count() == 2

    def test_custom_delimiter(self):
        schema = LogSchema(delimiter=";", timestamp_format="epoch")
        log = parse("trace_id;activity;timestamp\n1;a;10\n", schema)
        assert log.traces[0].events[0].activity == "a"

    def test_shuffled_rows_same_content(self):
        rows = [f"{t},{a},{ts}" for t, a, ts in
                [(1, "a", 10), (1, "b", 20), (2, "c", 5), (2, "d", 15), (1, "e", 30)]]
        header = "trace_id,activity,timestamp\n"
        base = parse(header + "\n".join(rows) + "\n", EPOCH_SCHEMA)
        rng = random.Random(99)
        for _ in range(10):
            rng.shuffle(rows)
            again = parse(header + "\n".join(rows) + "\n", EPOCH_SCHEMA)
            assert ({t.trace_id: t.events for t in base} ==
                    {t.trace_id: t.events for t in again})

    @pytest.mark.parametrize("source", ["path", "stream"])
    def test_byte_order_mark_dropped_from_header(self, tmp_path, source):
        text = "\ufefftrace_id,activity,timestamp\n1,a,10\n"
        path = tmp_path / "bom.csv"
        path.write_text(text, encoding="utf-8")
        log = (parse_log(path, EPOCH_SCHEMA) if source == "path"
               else parse(text, EPOCH_SCHEMA))
        assert log == parse(text[1:], EPOCH_SCHEMA)

    @pytest.mark.parametrize("source", ["path", "stream"])
    def test_byte_order_mark_before_quoted_header(self, tmp_path, source):
        path = tmp_path / "quoted.csv"
        with open(path, "w", encoding="utf-8-sig", newline="") as f:
            writer = csv.writer(f, quoting=csv.QUOTE_ALL)
            writer.writerows([["trace_id", "activity", "timestamp"], ["1", "a", "10"]])
        assert path.read_bytes().startswith(b'\xef\xbb\xbf"trace_id"')
        text = path.read_text(encoding="utf-8")
        log = (parse_log(path, EPOCH_SCHEMA) if source == "path"
               else parse(text, EPOCH_SCHEMA))
        assert log == EventLog((Trace("1", (Event("1", "a", 10),)),))

    def test_empty_input_rejected(self):
        with pytest.raises(SchemaError, match="empty input"):
            parse("", EPOCH_SCHEMA)

    def test_roundtrip_through_writer(self, tmp_path):
        log = make_log([("a", "b"), ("c",)])
        path = tmp_path / "out.csv"
        write_log(log, path, EPOCH_SCHEMA)
        assert parse_log(path, EPOCH_SCHEMA) == log

    def test_roundtrip_iso_format(self, tmp_path):
        log = make_log([("a", "b")], start=1546300800)
        path = tmp_path / "out.csv"
        write_log(log, path, LogSchema())
        assert parse_log(path, LogSchema()) == log


def logs(bot):
    """Strategy: logs of 1-4 nonempty traces with unique ids, timestamps in
    whole seconds from 1970 to 2100, and bot scores when ``bot``."""
    name = st.text(alphabet="ab,\"x\u00e9 ", min_size=1, max_size=4).map(
        str.strip).filter(bool)
    score = st.one_of(st.none(), st.floats(0, 1)) if bot else st.none()
    event = st.tuples(name, st.integers(0, 4_102_444_800), score)
    trace = st.tuples(name, st.lists(event, min_size=1, max_size=5))

    def build(raw):
        return EventLog(tuple(
            Trace(trace_id, tuple(Event(trace_id, a, ts, s) for a, ts, s in
                                  sorted(events, key=lambda e: e[1])))
            for trace_id, events in raw))
    return st.lists(trace, min_size=1, max_size=4,
                    unique_by=lambda t: t[0]).map(build)


class TestEvent:
    def test_fields_cannot_be_assigned(self):
        event = Event("t", "a", 1)
        with pytest.raises(AttributeError):
            event.activity = "b"

    def test_bot_score_defaults_to_none(self):
        assert Event("t", "a", 1).bot_score is None

    def test_hash_is_the_field_tuple_hash(self):
        fields = ("t", "a", 1, 0.5)
        assert hash(Event(*fields)) == hash(fields)
        assert Event(*fields) == Event("t", "a", 1, 0.5) != Event("t", "a", 1)


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["epoch", "iso8601"])
    @pytest.mark.parametrize("bot", [None, "bot_score"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_parse_of_write_is_identity(self, fmt, bot, data):
        log = data.draw(logs(bot))
        schema = LogSchema(bot_score=bot, timestamp_format=fmt)
        buffer = io.StringIO()
        write_log(log, buffer, schema)
        assert parse_log(io.StringIO(buffer.getvalue()), schema) == log


CAP_TRACES = ("p0", "p1", "p2", "p3", "p4", "p5")
CAP_SCHEMA = LogSchema(bot_score="bot", timestamp_format="epoch")
_good_row = st.builds("{},{},{},{}".format, st.sampled_from(CAP_TRACES),
                      st.sampled_from("abc"), st.integers(0, 9),
                      st.sampled_from(["", "0", "0.5", "1"]))
_bad_row = st.one_of(
    st.sampled_from(CAP_TRACES).map("{},a,not-a-time,0.5".format),
    st.sampled_from(CAP_TRACES).map("{},a,3,1.5".format),
    st.sampled_from(CAP_TRACES).map("{},a".format),
    st.just(",a,3,0.5"),
    st.sampled_from(CAP_TRACES).map("{},,3,0.5".format),
    st.just(""),  # a blank line
)
_cap = st.one_of(st.none(), st.integers(1, 4))


def parse_capturing(text, *caps, schema=CAP_SCHEMA):
    """(log, warnings logged) of ``parse_log`` on ``text`` with ``caps``."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("repostminer.eventlog")
    logger.addHandler(handler)
    try:
        log = parse_log(io.StringIO(text), schema, *caps)
    finally:
        logger.removeHandler(handler)
    return log, [(r.levelno, r.getMessage()) for r in records]


def _cascade_dump(cascades, iso):
    """(text, rows) of a dump of ``cascades`` cascades of 10 of 80 accounts,
    each account with its own bot score, starting over 90 days; ISO-8601
    stamps in the ``...Z`` form when ``iso``, else epoch seconds."""
    rng = random.Random(7)
    accounts = [f"h{i:04d}" for i in range(80)]
    score = {a: rng.randint(0, 10_000) / 10_000 for a in accounts}
    rows = []
    for c in range(cascades):
        t = 1_700_000_000 + rng.randrange(90 * 86400)
        for who in rng.sample(accounts, 10):
            stamp = datetime.fromtimestamp(t, timezone.utc).strftime(
                "%Y-%m-%dT%H:%M:%SZ") if iso else t
            rows.append(f"d{c:05d},{who},{stamp},{score[who]}\n")
            t += 1 + rng.randrange(900)
    return "trace_id,activity,timestamp,bot\n" + "".join(rows), len(rows)


def _traced_parse(text, schema):
    """(log, tracemalloc peak) of a parse of ``text`` capped to 30 traces."""
    stream = io.StringIO(text)
    tracemalloc.start()
    try:
        log = parse_log(stream, schema, max_traces=30)
        return log, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCappedParse:
    @given(st.tuples(st.lists(_good_row, max_size=30),
                     st.lists(_bad_row, max_size=6)).flatmap(
               lambda rows: st.permutations(rows[0] + rows[1])),
           _cap, _cap)
    # p0's rejected first row does not make it appear before p1; both start at 1
    @example(["p0,a,oops,0.5", "p1,a,5,0.5", "p0,b,2,", "p1,b,1,", "p0,c,1,1"], 2, 1)
    @settings(max_examples=300, deadline=None)
    def test_equals_preprocess_of_full_parse(self, rows, max_events, max_traces):
        text = "trace_id,activity,timestamp,bot\n" + "\n".join(rows) + "\n"
        capped, capped_warnings = parse_capturing(text, max_events, max_traces)
        full, full_warnings = parse_capturing(text)
        assert capped == preprocess(full, max_events, max_traces)
        assert capped_warnings == full_warnings
        # independent of preprocess: earliest first timestamp, then appearance
        ranked = sorted(range(len(full)),
                        key=lambda i: (full.traces[i].start, i))[:max_traces]
        assert [t.trace_id for t in capped] == [
            full.traces[i].trace_id for i in sorted(ranked)]

    def test_peak_memory_per_row(self):
        # A capped parse holds every valid row until it returns.  On this
        # 20,000-row dump of 80 accounts it peaks at about 78 bytes a row
        # (CPython 3.11): three shared references a row, plus one int for an
        # epoch stamp.  A flat list of a fresh int, shared account and shared
        # score per row peaked at about 86; one tuple, account str and score
        # float per row at about 213.
        text, rows = _cascade_dump(2000, iso=False)
        log, peak = _traced_parse(text, CAP_SCHEMA)
        assert log.event_count() == 300
        assert peak / rows < 150

    # The bytes a held row adds, (peak(2N) - peak(N)) / N: the memo tables,
    # filled alike by both dumps, and the interpreter's own state cancel.  An
    # ISO row holds its hour start, offset into the hour and (account, score)
    # pair, all shared: about 52 bytes on CPython 3.11, against 88-93 when it
    # held a fresh int.  An epoch row still holds its int: about 76, against
    # 81 before.
    @pytest.mark.parametrize("iso, bound", [(True, 64), (False, 81)])
    def test_marginal_memory_per_held_row(self, iso, bound):
        schema = LogSchema(bot_score="bot", timestamp_format="iso8601" if iso else "epoch")
        (text, rows), (twice, _) = _cascade_dump(1000, iso), _cascade_dump(2000, iso)
        peak = _traced_parse(text, schema)[1]
        assert (_traced_parse(twice, schema)[1] - peak) / rows <= bound

    @pytest.mark.parametrize("caps", [(0, None), (None, 0), (-1, 3)])
    def test_cap_below_one_rejected(self, caps):
        with pytest.raises(ValueError, match="must be >= 1"):
            parse_log(io.StringIO("trace_id,activity,timestamp\n"), EPOCH_SCHEMA, *caps)


# Score cells: padded and repeated spellings of valid scores, each of which
# the parser stores once, and invalid ones that must be rejected every time.
_SCORE_CELLS = ["", " ", "0", "-0.0", "0.5", " 0.5", "0.50", "5e-1", "1",
                "1.5", "nan", "x"]
_oracle_row = st.one_of(
    st.builds("{},{},{},{}".format,
              st.sampled_from(CAP_TRACES + (" p1", "p2 ")),
              # longer than one character, which CPython caches anyway
              st.sampled_from(["ab", " ab", "ab ", "bc", " bc ", "cd"]),
              st.integers(0, 4), st.sampled_from(_SCORE_CELLS)),
    _bad_row)
# each invalid score twice, padded accounts, spellings of 0.5, equal times
_REPEATS = ["p0,ab,1,1.5", "p1, ab,0,nan", "p0,ab ,2,1.5", "p1,bc,0,nan",
            "p0,bc,1,5e-1", "p2,ab,1, 0.5", "p2,cd,1,0.50"]


class TestParseOracle:
    """``parse_log``'s compact store against the one-tuple-per-row parser."""

    @pytest.mark.parametrize("bot", ["bot", None])
    @given(rows=st.lists(_oracle_row, max_size=40), max_events=_cap, max_traces=_cap)
    @example(rows=_REPEATS, max_events=None, max_traces=None)
    @example(rows=_REPEATS, max_events=1, max_traces=2)
    # p1's first row is rejected, so p1 appears at " p1", after p0: the full
    # log lists p0 first, and of p0 and p1, which tie at 1, the cap keeps p0
    @example(rows=["p1,ab,oops,0", "p0,ab,1,0", " p1,bc,1,0", "p2,cd,0,0"],
             max_events=None, max_traces=None)
    @example(rows=["p1,ab,oops,0", "p0,ab,1,0", " p1,bc,1,0", "p2,cd,0,0"],
             max_events=None, max_traces=2)
    # one account cell with three score cells, and a padded spelling of it
    @example(rows=["p0, ab,1,0.5", "p0, ab,2,1", "p1,ab ,0,0.5", "p1, ab,3,"],
             max_events=None, max_traces=None)
    # both caps at once
    @example(rows=["p0,ab,4,0", "p1,bc,1,0.5", "p0,cd,0,1", "p2,ab,1,",
                   "p1,ab,3,0", "p0,bc,2,0", "p2,cd,0,0.5"],
             max_events=2, max_traces=2)
    @settings(max_examples=200, deadline=None)
    def test_equals_reference(self, bot, rows, max_events, max_traces):
        schema = LogSchema(bot_score=bot, timestamp_format="epoch")
        text = "trace_id,activity,timestamp,bot\n" + "\n".join(rows) + "\n"
        log, warnings = parse_capturing(text, max_events, max_traces, schema=schema)
        assert (log, warnings) == reference_parse(text, schema, max_events, max_traces)
        shared = {}
        for trace in log:
            for event in trace:
                assert shared.setdefault(event.activity, event.activity) is event.activity


class TestPreprocess:
    def test_truncates_to_first_ten(self):
        log = make_log([tuple(f"u{i}" for i in range(15))])
        out = preprocess(log, max_events=10)
        assert len(out.traces[0]) == 10
        assert out.traces[0].activities() == tuple(f"u{i}" for i in range(10))

    def test_short_trace_unchanged(self):
        log = make_log([("a", "b", "c")])
        assert preprocess(log, max_events=10) == log

    def test_earliest_starting_traces_kept(self):
        traces = []
        for i, start in enumerate([50, 10, 30, 20, 40]):
            traces.append(Trace(f"c{i}", (Event(f"c{i}", "a", start),)))
        out = preprocess(EventLog(tuple(traces)), max_events=10, max_traces=3)
        # the three earliest starters survive, in appearance order
        assert [t.trace_id for t in out.traces] == ["c1", "c2", "c3"]

    def test_tie_breaks_by_appearance(self):
        traces = [Trace(f"c{i}", (Event(f"c{i}", "a", 10),)) for i in range(4)]
        out = preprocess(EventLog(tuple(traces)), max_events=5, max_traces=2)
        assert [t.trace_id for t in out.traces] == ["c0", "c1"]

    def test_empty_log_passes_through(self):
        assert preprocess(EventLog(), max_events=10, max_traces=5) == EventLog()

    @given(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=12),
                    min_size=0, max_size=6),
           st.integers(1, 11))
    @settings(max_examples=60, deadline=None)
    def test_truncation_monotonicity(self, shape, k):
        log = make_log([tuple(f"u{x}" for x in seq) for seq in shape])
        small = preprocess(log, max_events=k)
        large = preprocess(log, max_events=k + 1)
        for a, b in zip(small.traces, large.traces):
            assert b.events[:len(a.events)] == a.events


class TestBotSplit:
    def test_routing(self):
        events = tuple(Event("1", a, 10 * i, s) for i, (a, s) in
                       enumerate([("hi", 0.95), ("lo", 0.05), ("mid", 0.5)]))
        log = EventLog((Trace("1", events),))
        high, low = split_by_bot_score(log, 0.9, 0.1)
        assert high.traces[0].activities() == ("hi",)
        assert low.traces[0].activities() == ("lo",)

    def test_emptied_traces_dropped(self):
        log = make_log([("a",), ("b",)], bot_score=0.95)
        high, low = split_by_bot_score(log)
        assert len(high) == 2 and len(low) == 0

    def test_missing_score_fatal(self):
        log = make_log([("a",)])
        with pytest.raises(SchemaError, match="bot score"):
            split_by_bot_score(log)

    def test_bounds_must_be_ordered(self):
        with pytest.raises(ValueError):
            split_by_bot_score(make_log([], bot_score=0.5), 0.1, 0.9)

    @given(st.lists(st.lists(st.floats(0, 1, allow_nan=False), min_size=1,
                             max_size=6), min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_partition_no_event_in_both(self, scores):
        traces = []
        for i, row in enumerate(scores):
            events = tuple(Event(f"c{i}", f"u{j}", 10 * j, s)
                           for j, s in enumerate(row))
            traces.append(Trace(f"c{i}", events))
        high, low = split_by_bot_score(EventLog(tuple(traces)), 0.9, 0.1)
        seen_high = {(e.trace_id, e.activity, e.timestamp)
                     for t in high for e in t}
        seen_low = {(e.trace_id, e.activity, e.timestamp)
                    for t in low for e in t}
        assert not (seen_high & seen_low)


class TestDfg:
    def test_adjacent_pair_counts(self):
        dfg = dfg_from_sequences(make_log([("A", "B", "C"), ("A", "C", "B")]).sequences())
        assert dfg.edge_counts == {("A", "B"): 1, ("B", "C"): 1,
                                   ("A", "C"): 1, ("C", "B"): 1}
        assert dfg.start_counts == {"A": 2}
        assert dfg.end_counts == {"C": 1, "B": 1}

    def test_single_event_trace(self):
        dfg = dfg_from_sequences(make_log([("A",)]).sequences())
        assert dfg.edge_counts == {}
        assert dfg.start_counts == {"A": 1}
        assert dfg.end_counts == {"A": 1}

    def test_empty_log(self):
        dfg = dfg_from_sequences(EventLog().sequences())
        assert dfg.edge_counts == {} and dfg.start_counts == {}

    @given(st.lists(st.lists(st.integers(0, 4), min_size=0, max_size=10),
                    min_size=0, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_edge_total_matches_pair_count(self, shape):
        seqs = [tuple(f"u{x}" for x in seq) for seq in shape]
        log = make_log(seqs)
        dfg = dfg_from_sequences(log.sequences())
        assert sum(dfg.edge_counts.values()) == sum(
            max(0, len(s) - 1) for s in seqs)
        assert sum(dfg.start_counts.values()) == sum(1 for s in seqs if s)


ISO_SCHEMA = LogSchema(bot_score="bot")
# Day ends, a leap day's among them, in epoch seconds: stamps a few seconds
# either side share hours, cross an hour and cross a day
_DAY_ENDS = [1704067200,   # 2024-01-01T00:00
             1709251200,   # 2024-03-01T00:00, after 2024-02-29
             1677628800]   # 2023-03-01T00:00, after 2023-02-28
# The per-hour memo's forms, then forms only the full parse takes
_ZONES = ["Z", "z", "+00:00", ".000Z", ".000z", ".000+00:00",
          "+05:30", ".5Z", ""]
_ODD_STAMPS = [" 2024-02-29T23:59:59Z", "2024-02-29T23:59:59Z ",
               "2024-02-29t23:59:58Z", "2024-02-29 23:59:57Z",
               "2023-12-31T24:00:00Z", "2023-12-31T23:59:60Z",
               "2024-02-29T23:59:60Z", "2024-02-29T23:60:00Z",
               "2023-02-29T23:59:59Z", "2024-02-29T00:00:00Z"]


def _stamp(epoch, zone):
    moment = datetime.fromtimestamp(epoch, timezone.utc)
    return moment.strftime("%Y-%m-%dT%H:%M:%S") + zone


_iso_stamp = st.one_of(
    st.builds(_stamp, st.builds(int.__add__, st.sampled_from(_DAY_ENDS),
                                st.integers(-3, 2)),
              st.sampled_from(_ZONES)),
    st.sampled_from(_ODD_STAMPS))
_iso_row = st.builds("{},{},{},{}".format, st.sampled_from(CAP_TRACES),
                     st.sampled_from(["ab", "bc"]), _iso_stamp,
                     st.sampled_from(["", "0.5", "1.5"]))


class TestIsoParse:
    """The per-hour memo of ISO-8601 stamps against a parser that converts
    every stamp on its own."""

    @given(rows=st.tuples(st.lists(_iso_row, max_size=40),
                          st.lists(_bad_row, max_size=4)).flatmap(
               lambda rows: st.permutations(rows[0] + rows[1])),
           max_events=_cap, max_traces=_cap)
    # each hour's first row is rejected: a leap second, a bad score, then a
    # bad date; the later rows of those hours parse, or fail, on their own
    @example(rows=["p0,ab,2024-02-29T23:59:60Z,", "p0,bc,2024-02-29T23:59:59Z,",
                   "p1,ab,2024-03-01T00:00:00Z,1.5", "p1,bc,2024-03-01T00:00:01.000z,",
                   "p2,ab,2023-02-29T23:59:59Z,", "p2,bc,2023-02-29T23:59:58Z,",
                   "p2,ab,2023-03-01T00:00:00+00:00,"],
             max_events=None, max_traces=None)
    # one hour in Z, +00:00 and .000z stamps, a tail repeated in the next
    # hour, and a tail seen first in a stamp the full parse rejects
    @example(rows=["p0,ab,2024-01-01T00:00:05Z,", "p0,bc,2024-01-01T00:00:05+00:00,",
                   "p1,ab,2024-01-01T00:59:59.000z,", "p1,bc,2024-01-01T00:00:04Z,0.5",
                   "p2,ab,2024-01-01T01:00:05Z,", "p2,bc,2023-02-29T00:30:00Z,",
                   "p2,ab,2024-01-01T01:30:00Z,"],
             max_events=None, max_traces=2)
    # an offset, a fraction and a naive stamp in an hour the memo holds
    @example(rows=["p0,ab,2024-01-01T00:00:00Z,", "p0,bc,2024-01-01T00:00:01+05:30,",
                   "p1,ab,2024-01-01T00:00:02.5Z,", "p1,bc,2024-01-01T00:00:03,"],
             max_events=None, max_traces=None)
    @settings(max_examples=300, deadline=None)
    def test_equals_reference(self, rows, max_events, max_traces):
        text = "trace_id,activity,timestamp,bot\n" + "\n".join(rows) + "\n"
        log, warnings = parse_capturing(text, max_events, max_traces,
                                        schema=ISO_SCHEMA)
        assert (log, warnings) == reference_parse(text, ISO_SCHEMA,
                                                  max_events, max_traces)

    def test_non_leap_feb_29_rejected(self):
        text = ("trace_id,activity,timestamp,bot\n"
                "p0,ab,2023-02-29T10:00:00Z,\n"
                "p0,bc,2023-02-29T10:00:01Z,\n"
                "p0,cd,2024-02-29T10:00:00Z,\n")
        log, warnings = parse_capturing(text, schema=ISO_SCHEMA)
        assert log.traces[0].events == (Event("p0", "cd", 1709200800),)
        assert [message for _, message in warnings] == [
            "line 2: rejected row (day is out of range for month)",
            "line 3: rejected row (day is out of range for month)",
            "rejected 2 of 3 rows"]

    def test_hour_24_rejected(self):
        text = ("trace_id,activity,timestamp,bot\n"
                "p0,ab,2023-12-31T24:00:00Z,\n"
                "p0,bc,2024-01-01T00:00:00Z,\n"
                "p0,cd,2024-01-01T00:00:01Z,\n")
        log, warnings = parse_capturing(text, schema=ISO_SCHEMA)
        assert [(e.activity, e.timestamp) for e in log.traces[0]] == [
            ("bc", 1704067200), ("cd", 1704067201)]
        assert [message for _, message in warnings] == [
            "line 2: rejected row (hour must be in 0..23)", "rejected 1 of 3 rows"]
