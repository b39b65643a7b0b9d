import csv
import io
import logging
import random
import tempfile
import tracemalloc
from datetime import datetime, timezone
from operator import itemgetter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logutil import make_log
from refparse import reference_parse
from repostminer import eventlog
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

    def test_warning_names_the_line_its_row_starts_on(self):
        # the quoted cells span lines 2-3 and 4-5, so the rows that follow
        # start on lines 4 and 6; the count is of rows, not of lines
        text = ('trace_id,activity,timestamp\n'
                'p1,"multi\nline",5\np1,"two\nlines",oops\np1,b,oops\n')
        log, warnings = parse_capturing(text, schema=EPOCH_SCHEMA)
        assert [message for _, message in warnings] == [
            "line 4: rejected row (could not convert string to float: 'oops')",
            "line 6: rejected row (could not convert string to float: 'oops')",
            "rejected 2 of 3 rows"]
        assert log.traces[0].activities() == ("multi\nline",)
        assert reference_parse(text, EPOCH_SCHEMA) == (log, warnings)

    @pytest.mark.parametrize("cell", ["1e30", "-1e30", "9.3e18", "-9.3e18"])
    def test_epoch_second_outside_int64_rejected(self, cell):
        text = f"trace_id,activity,timestamp\np1,a,{cell}\np1,b,9e18\np1,c,-9e18\n"
        log, warnings = parse_capturing(text, schema=EPOCH_SCHEMA)
        assert [message for _, message in warnings] == [
            f"line 2: rejected row (timestamp {cell} outside int64)", "rejected 1 of 3 rows"]
        assert log.traces[0].events == (Event("p1", "c", -9 * 10 ** 18),
                                        Event("p1", "b", 9 * 10 ** 18))
        assert reference_parse(text, EPOCH_SCHEMA) == (log, warnings)

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
    # a number, but no epoch second the parse holds (nor an ISO-8601 stamp)
    st.sampled_from(CAP_TRACES).map("{},a,1e30,0.5".format),
)
_cap = st.one_of(st.none(), st.integers(1, 4))


def parse_capturing(text, *caps, schema=CAP_SCHEMA, source=None):
    """(log, warnings logged) of ``parse_log`` with ``caps`` on ``text``, read
    as a stream that ends lines as a file opened with ``newline=""`` does, or
    on ``source``, when given, a path or a text stream that holds ``text``."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("repostminer.eventlog")
    logger.addHandler(handler)
    try:
        log = parse_log(source or io.StringIO(text, newline=""), schema, *caps)
    finally:
        logger.removeHandler(handler)
    return log, [(r.levelno, r.getMessage()) for r in records]


def parse_both(text, *caps, schema=CAP_SCHEMA):
    """``parse_capturing`` of ``text`` read as a stream, after checking that
    a parse of the same text written to a file, which ``parse_log`` opens
    itself, gives the same log and warnings."""
    by_stream = parse_capturing(text, *caps, schema=schema)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dump.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert parse_capturing(text, *caps, schema=schema, source=path) == by_stream
    return by_stream


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


@pytest.fixture(scope="module")
def cascade_dump(tmp_path_factory):
    """``cascade_dump(cascades, iso)``: (path, rows) of ``_cascade_dump``'s
    dump written to a file, each dump generated and written once."""
    made = {}

    def dump(cascades, iso):
        if (cascades, iso) not in made:
            text, rows = _cascade_dump(cascades, iso)
            path = tmp_path_factory.mktemp("dump") / "dump.csv"
            path.write_text(text, encoding="utf-8", newline="")
            made[cascades, iso] = path, rows
        return made[cascades, iso]
    return dump


@pytest.fixture(scope="module")
def capped_parse(cascade_dump):
    """``capped_parse(cascades, iso)``: (log, tracemalloc peak, rows) of a
    parse of ``cascade_dump(cascades, iso)`` with its bot scores, capped to 30
    traces and read from the file as the command line reads its inputs;
    each parse measured once."""
    measured = {}

    def parse(cascades, iso):
        if (cascades, iso) not in measured:
            path, rows = cascade_dump(cascades, iso)
            schema = LogSchema(bot_score="bot",
                               timestamp_format="iso8601" if iso else "epoch")
            tracemalloc.start()
            try:
                log = parse_log(path, schema, max_traces=30)
                measured[cascades, iso] = log, tracemalloc.get_traced_memory()[1], rows
            finally:
                tracemalloc.stop()
        return measured[cascades, iso]
    return parse


def _in_time_order(cascades):
    """(text, rows) of ``_cascade_dump(cascades, iso=False)``'s rows sorted
    by time, a dump in time order."""
    text, rows = _cascade_dump(cascades, iso=False)
    header, *lines = text.splitlines(keepends=True)
    lines.sort(key=lambda line: int(line.split(",")[2]))
    return header + "".join(lines), rows


@st.composite
def _time_ordered_rows(draw):
    """Rows of a dump in time order, rejected rows among them, and maybe one
    row moved to a later place, so that it is out of order."""
    valid = sorted(draw(st.lists(st.tuples(
        st.integers(0, 9), st.sampled_from(CAP_TRACES), st.sampled_from("abc"),
        st.sampled_from(["", "0", "0.5", "1"])), max_size=30)), key=itemgetter(0))
    rows = [f"{trace},{account},{second},{score}" for second, trace, account, score in valid]
    for row in draw(st.lists(_bad_row, max_size=4)):
        rows.insert(draw(st.integers(0, len(rows))), row)
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        rows.insert(draw(st.integers(i, len(rows) - 1)), rows.pop(i))
    return rows


class _Unseekable(io.StringIO):
    def seekable(self):
        return False


class _Seeks(io.StringIO):
    """A text stream that counts the calls of its ``seek``."""

    seeks = 0

    def seek(self, *args):
        self.seeks += 1
        return super().seek(*args)


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
        capped, capped_warnings = parse_both(text, max_events, max_traces)
        full, full_warnings = parse_both(text)
        assert capped == preprocess(full, max_events, max_traces)
        assert capped_warnings == full_warnings
        # independent of preprocess: earliest first timestamp, then appearance
        ranked = sorted(range(len(full)),
                        key=lambda i: (full.traces[i].start, i))[:max_traces]
        assert [t.trace_id for t in capped] == [
            full.traces[i].trace_id for i in sorted(ranked)]

    # Which traces a capped parse keeps is known only at the end, so each
    # trace's start is tracked as its rows arrive: its earliest row may come
    # last, after rows of traces that start later, and equal starts keep the
    # order in which the traces first appear.
    @pytest.mark.parametrize("iso", [False, True])
    @pytest.mark.parametrize("rows, max_traces, kept", [
        ([("b", 20), ("a", 50), ("b", 30), ("a", 10)], 1, ["a"]),
        ([("a", 50), ("a", 20), ("b", 30)], 1, ["a"]),
        ([("b", 20), ("a", 30), ("c", 20), ("a", 20)], 2, ["b", "a"]),
        ([("b", 20), ("a", 30), ("c", 20), ("a", 20)], 1, ["b"]),
    ])
    def test_start_tracked_as_rows_arrive(self, iso, rows, max_traces, kept):
        schema = LogSchema(timestamp_format="iso8601" if iso else "epoch")
        text = "trace_id,activity,timestamp\n" + "".join(
            f"{trace},x{i},{_stamp(1704067200 + second, 'Z') if iso else second}\n"
            for i, (trace, second) in enumerate(rows))
        log, warnings = parse_capturing(text, None, max_traces, schema=schema)
        assert [t.trace_id for t in log] == kept
        assert (log, warnings) == reference_parse(text, schema, None, max_traces)

    # A time-ordered dump, read as a path, as a stream and as a stream that
    # cannot seek: rows of traces past the cap are dropped while the order
    # holds, and a row out of order after a drop makes the parse read the
    # input again.
    @given(rows=_time_ordered_rows(), max_events=_cap, max_traces=_cap)
    # the late p1 row starts p1 before p0, after p1's valid row was dropped
    @example(rows=["p0,a,1,", "p1,a,oops,0.5", "p1,b,2,", "p1,c,0,"],
             max_events=None, max_traces=1)
    @settings(max_examples=300, deadline=None)
    def test_time_ordered_dump_equals_reference(self, rows, max_events, max_traces):
        text = "trace_id,activity,timestamp,bot\n" + "\n".join(rows) + "\n"
        expected = reference_parse(text, CAP_SCHEMA, max_events, max_traces)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "dump.csv"
            path.write_text(text, encoding="utf-8", newline="")
            assert parse_capturing(text, max_events, max_traces, source=path) == expected
        for stream in io.StringIO(text), _Unseekable(text):
            assert parse_capturing(text, max_events, max_traces, source=stream) == expected

    def test_late_row_brings_a_dropped_trace_into_the_kept_set(self):
        text = "trace_id,activity,timestamp,bot\np0,a,1,\np1,a,oops,0.5\np1,b,2,\np1,c,0,\n"
        stream = _Seeks(text)
        log, warnings = parse_capturing(text, None, 1, source=stream)
        assert stream.seeks == 1  # read a second time
        assert [t.trace_id for t in log] == ["p1"]
        assert log.event_count() == 2
        assert warnings == [
            (logging.WARNING, "line 3: rejected row (could not convert string to float: 'oops')"),
            (logging.WARNING, "rejected 1 of 4 rows")]
        assert (log, warnings) == reference_parse(text, CAP_SCHEMA, None, 1)

    # The time-order rule case by case, by the seeks each makes: a row out of
    # order before any drop switches dropping off, so that a later trace past
    # the cap is held, one of a kept trace after a drop reads the input
    # again, and a new trace at the cap whose second equals the latest so far
    # is in order, so it is dropped: a later row out of order then reads the
    # input again.
    @pytest.mark.parametrize("rows, max_traces, seeks, kept", [
        (["p0,a,5,", "p1,a,3,", "p2,a,9,"], 2, 0,
         [("p0", [("a", 5)]), ("p1", [("a", 3)])]),
        (["p0,a,5,", "p1,a,3,", "p2,a,4,"], 2, 0,
         [("p1", [("a", 3)]), ("p2", [("a", 4)])]),
        (["p0,a,5,", "p1,a,6,", "p0,b,1,"], 1, 1, [("p0", [("b", 1), ("a", 5)])]),
        (["p0,a,5,", "p1,a,5,"], 1, 0, [("p0", [("a", 5)])]),
        (["p0,a,5,", "p1,a,5,", "p0,b,4,"], 1, 1, [("p0", [("b", 4), ("a", 5)])]),
    ])
    def test_seeks_by_order_case(self, rows, max_traces, seeks, kept):
        text = "trace_id,activity,timestamp,bot\n" + "\n".join(rows) + "\n"
        stream = _Seeks(text)
        log, warnings = parse_capturing(text, None, max_traces, source=stream)
        assert stream.seeks == seeks
        assert [(t.trace_id, [(e.activity, e.timestamp) for e in t]) for t in log] == kept
        assert (log, warnings) == reference_parse(text, CAP_SCHEMA, None, max_traces)

    def test_file_that_cannot_tell_holds_every_row(self, tmp_path):
        # a file iterated by next() cannot tell where it is, so a parse
        # could not read it again and drops no row
        text = "trace_id,activity,timestamp,bot\np0,a,1,\np1,a,2,\np1,b,0,\n"
        path = tmp_path / "dump.csv"
        path.write_text("preamble\n" + text, encoding="utf-8", newline="")
        with open(path, encoding="utf-8", newline="") as stream:
            next(stream)
            assert parse_capturing(text, None, 1, source=stream) == reference_parse(
                text, CAP_SCHEMA, None, 1)

    def test_time_ordered_dump_read_once(self):
        text, _ = _in_time_order(100)
        stream = _Seeks(text)
        log = parse_log(stream, CAP_SCHEMA, max_traces=30)
        assert stream.seeks == 0
        assert log == reference_parse(text, CAP_SCHEMA, None, 30)[0]

    # A capped parse of a dump in time order holds only the rows of the
    # traces it keeps, so its peak does not grow with the dump: (peak(2N) -
    # peak(N)) / N over the time-ordered rows of 1,000 and 2,000 cascades,
    # each cut to 30 traces: about -1 byte on CPython 3.11, against about 29
    # when every valid row was held.
    def test_time_ordered_peak_per_extra_row(self, tmp_path):
        peaks = []
        for cascades in 1000, 2000:
            text, rows = _in_time_order(cascades)
            path = tmp_path / f"{cascades}.csv"
            path.write_text(text, encoding="utf-8", newline="")
            tracemalloc.start()
            try:
                log = parse_log(path, CAP_SCHEMA, max_traces=30)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert log.event_count() == 300
        assert (peaks[1] - peaks[0]) / (rows / 2) <= 1

    # The memory bounds below measure a parse that holds every valid row:
    # the rows of ``_cascade_dump`` fall out of time order before its 31st
    # trace appears, so that a parse capped to 30 traces drops none.
    @pytest.mark.parametrize("cascades", [1000, 2000])
    def test_cascade_dump_not_in_time_order(self, cascades):
        # the stamps' form does not change their seconds; each cascade is 10
        # rows in a row, so the 31st starts at row 300
        text, _ = _cascade_dump(cascades, iso=False)
        seconds = [int(line.split(",")[2]) for line in text.splitlines()[1:301]]
        assert any(b < a for a, b in zip(seconds, seconds[1:]))

    def test_peak_memory_per_row(self, capped_parse):
        # A capped parse of a dump out of time order holds every valid row
        # until it returns.  On this 20,000-row dump of 80 accounts, read
        # from its file, it peaks at about 37 bytes a row (CPython 3.11), 5
        # of them the block being split, and at about 32 read from a stream:
        # a row is an int64 second and two int32s in three columns, and each
        # of its 2,000 traces adds its id, number, last row and start.  Three
        # shared references a row in a flat per-trace list peaked at about
        # 78; one tuple, account str and score float per row at about 213.
        log, peak, rows = capped_parse(2000, iso=False)
        assert log.event_count() == 300
        assert peak / rows < 150

    # The bytes a held row adds, (peak(2N) - peak(N)) / N, on a dump out of
    # time order, so that every valid row is held: the memo tables,
    # filled alike by both dumps, the block being split and the interpreter's
    # own state cancel.  A row is 16 bytes of columns whichever its stamp;
    # with its share of its trace's id, number, last row and start, an ISO
    # row adds about 39 bytes and an epoch row about 30 on CPython 3.11 (42
    # and 32 on 3.10, read from a stream).  Three
    # shared references a row in a flat per-trace list took about 52 and 76,
    # since an epoch row held its own int.
    @pytest.mark.parametrize("iso, bound", [(True, 44), (False, 34)])
    def test_marginal_memory_per_held_row(self, capped_parse, iso, bound):
        _, peak, rows = capped_parse(1000, iso)
        assert (capped_parse(2000, iso)[1] - peak) / rows <= bound

    # An uncapped parse builds every held row into an event, cutting the
    # columns as it goes, so at its peak it holds little beyond the log it
    # returns.  Peak minus the memory the returned log holds, per row, is
    # about 12.5 bytes for epoch stamps on CPython 3.10-3.13, and 42-47
    # for ISO-8601 ones, most of it the memo tables.  Per-trace flat lists,
    # each let go once built, took 12.7-12.8 and 42.4-47.2 on the same
    # versions: the bounds, so that no gather may hold a second copy of the
    # rows.  (Peak per row alone moves with the interpreter's free lists.)
    @pytest.mark.parametrize("iso, bound", [(True, 48), (False, 13)])
    def test_uncapped_peak_over_log_per_row(self, cascade_dump, iso, bound):
        schema = LogSchema(bot_score="bot", timestamp_format="iso8601" if iso else "epoch")
        path, rows = cascade_dump(2000, iso)
        tracemalloc.start()
        try:
            log = parse_log(path, schema)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert log.event_count() == rows
        assert (peak - held) / rows <= bound

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
        log, warnings = parse_both(text, max_events, max_traces, schema=schema)
        assert (log, warnings) == reference_parse(text, schema, max_events, max_traces)
        shared = {}
        for trace in log:
            for event in trace:
                assert shared.setdefault(event.activity, event.activity) is event.activity


_HEADER = "trace_id,activity,timestamp,bot\n"
_LIMIT = csv.field_size_limit()


def _clean_rows(size):
    """Unquoted LF rows of ``size`` characters in all, the last account
    padded to fill them exactly."""
    rows, used, i = [], 0, 0
    while used < size - 30:
        rows.append(f"p{i % 7},a{i % 5},{i},0.5\n")
        used += len(rows[-1])
        i += 1
    rows.append(f"p0,{'x' * (size - used - 10)},1,0.5\n")
    return "".join(rows)


def _across_blocks(piece, at, tail="p5,b,oops,0.5\n"):
    """A dump whose body holds a rejected row and clean rows, then ``piece``
    from the body's character ``at`` on, then ``tail``, a rejected row."""
    return _HEADER + "p5,a,oops,0.5\n" + _clean_rows(at - 14) + piece + tail


_B = eventlog._BLOCK
# Each dump's body starts with two clean blocks, or a clean block and the
# start of a line, before a block that csv must read; the last rejected
# row's warning checks the line count across both sources.
_ACROSS_BLOCKS = {
    # the quote ends the second block, or starts the third after a clean one
    "quoted line break across a block end": _across_blocks('p1,"a\nb",5,0.5\n', 2 * _B - 4),
    "quoted line break after a block end": _across_blocks('p1,"a\nb",5,0.5\n', 2 * _B - 3),
    "lone CR right after a clean block": _across_blocks("p1,c,5,0.5\rp2,d,6,0.5\n", 2 * _B - 10),
    "CRLF split by a block end": _across_blocks("p1,c,5,0.5\r\np2,d,6,0.5\r\n", 2 * _B - 11),
    "CRLF file": (_HEADER + "p5,a,oops,0.5\n" + _clean_rows(2 * _B)
                  + "p5,b,oops,0.5\n").replace("\n", "\r\n"),
    # csv rejects the line on Python 3.10 and keeps it from 3.11 on
    "NUL": _across_blocks("p1,a\0b,5,0.5\n", 2 * _B),
    "field at the size limit": _across_blocks(f"p1,{'y' * _LIMIT},5,0.5\n", 2 * _B),
    "field over the size limit": _across_blocks(f"p1,{'y' * (_LIMIT + 1)},5,0.5\n", 2 * _B),
    "blank lines across a block end": _across_blocks("\n\np1,c,5,0.5\n\n", 2 * _B - 1),
    "no final newline": _across_blocks("p1,c,5,0.5\n", 2 * _B, tail="p5,b,oops,0.5"),
    "BOM before a two-line quoted header": (
        '\ufeff"trace_id\n",activity,timestamp,bot\n' + "p5,a,oops,0.5\n"
        + _clean_rows(2 * _B) + "p5,b,oops,0.5\n"),
}


def _line_end_dump(end, cell=""):
    """A dump longer than two blocks with ``end`` line ends, and rejected rows
    before and after its clean rows and ``cell``, a row written as is."""
    return (_HEADER + "p5,a,oops,0.5\n" + _clean_rows(2 * _B)).replace("\n", end) + (
        cell + "p5,b,oops,0.5" + end)


_LINE_ENDS = {
    "LF": _line_end_dump("\n"),
    "CRLF, a quoted CRLF cell": _line_end_dump("\r\n", 'p1,"a\r\nb",5,0.5\r\n'),
    "CR": _line_end_dump("\r"),
}
# How a dump at ``path`` holding ``text`` is read as a text stream
_STREAMS = {
    "open(path)": lambda path, text: open(path, encoding="utf-8"),
    'open(path, newline="")': lambda path, text: open(path, encoding="utf-8", newline=""),
    "StringIO(text)": lambda path, text: io.StringIO(text),
    'StringIO(text, newline="")': lambda path, text: io.StringIO(text, newline=""),
}


# Rows of clean cells and cells with lone CRs, quoted or not, each ended by
# an LF, a CR, a CRLF or nothing
_cr_cell = st.text("ab\r", max_size=3)
_cr_row = st.builds(
    "{},{},{},0.5{}".format,
    st.sampled_from(CAP_TRACES),
    st.one_of(_cr_cell, _cr_cell.map('"{}"'.format)),
    st.one_of(st.integers(0, 9).map(str), _cr_cell),
    st.sampled_from(["\n", "\r", "\r\n", ""]))


def _outcome(parse, *args, **kwargs):
    """``parse``'s result, or the csv error it raises."""
    try:
        return parse(*args, **kwargs)
    except csv.Error as exc:
        return repr(exc)


class TestBlockSource:
    """Clean blocks are split without csv, and csv reads the rest from the
    first other block on: the same log and warnings as csv throughout, line
    numbers included, whether ``parse_log`` opens a path or is given a stream."""

    @pytest.mark.parametrize("stream", list(_STREAMS))
    @pytest.mark.parametrize("name", list(_LINE_ENDS))
    def test_every_stream_equals_reference_on_what_it_delivers(self, tmp_path, name, stream):
        text = _LINE_ENDS[name]
        assert len(text) > 2 * _B
        path = tmp_path / "dump.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with _STREAMS[stream](path, text) as source:
            delivered = source.read()
        with _STREAMS[stream](path, text) as source:
            outcome = _outcome(parse_capturing, delivered, source=source)
        # a stream that ends lines at LF only delivers a CR dump as one line,
        # which the parse splits at its CRs as the reference parser does
        assert outcome == reference_parse(delivered, CAP_SCHEMA)
        assert len(outcome[1]) == 3  # both rejected rows and the count

    # A stream that ends lines at LF only delivers a lone CR as it is; the
    # parse splits a line there, in a quoted cell or not, in the header's
    # block or in a later one, as the reference parser does.
    @given(rows=st.lists(_cr_row, max_size=12), block=st.sampled_from([1, 2, 5, 16, _B]))
    @example(rows=["p1,a,1,0.5\n", "p2,a\rp3,b,2,0.5\n"], block=8)
    @example(rows=["p1,a,1,0.5\n", 'p2,"a\rb",2,0.5\n'], block=8)
    # after the quote, csv reads a CRLF that a block end splits, then a
    # rejected row, whose line is counted across the split
    @example(rows=['p0,"x",1,0.5\n', "p1,a,1,0.5\r\n", "p2,a,b,0.5\n"], block=8)
    @settings(max_examples=300, deadline=None)
    def test_lone_cr_in_lf_stream_equals_reference(self, rows, block):
        text = _HEADER + "".join(rows)
        with mock.patch.object(eventlog, "_BLOCK", block):
            outcome = _outcome(parse_capturing, text, source=io.StringIO(text))
        assert outcome == _outcome(reference_parse, text, CAP_SCHEMA)

    @pytest.mark.parametrize("name", list(_ACROSS_BLOCKS))
    def test_path_equals_stream_and_reference(self, tmp_path, name):
        text = _ACROSS_BLOCKS[name]
        assert len(text) > 2 * _B
        path = tmp_path / "dump.csv"
        path.write_text(text, encoding="utf-8", newline="")
        by_path = _outcome(parse_capturing, text, source=path)
        assert by_path == _outcome(parse_capturing, text)
        # the reference parser reads no byte-order mark
        assert by_path == _outcome(reference_parse, text.removeprefix("\ufeff"), CAP_SCHEMA)

    def test_field_over_size_limit_raises(self, tmp_path):
        path = tmp_path / "dump.csv"
        path.write_text(_ACROSS_BLOCKS["field over the size limit"], encoding="utf-8")
        with pytest.raises(csv.Error, match="field larger than field limit"):
            parse_log(path, CAP_SCHEMA)

    def test_rows_after_the_csv_part(self, tmp_path):
        # csv reads the quoted cell, and the last line's row is rejected by
        # the number of the last line
        text = _ACROSS_BLOCKS["quoted line break across a block end"]
        path = tmp_path / "dump.csv"
        path.write_text(text, encoding="utf-8")
        log, warnings = parse_capturing(text, source=path)
        assert Event("p1", "a\nb", 5, 0.5) in log.traces[1].events
        assert warnings[-2] == (logging.WARNING, f"line {text.count(chr(10))}: rejected "
                                "row (could not convert string to float: 'oops')")


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
