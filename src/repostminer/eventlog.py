"""Event logs of repost cascades.

A trace collects every repost of one original post, ordered by time.  Each
event names the post being shared (trace id), the account that shared it
(activity) and the second at which it happened.  This module parses
delimiter-separated dumps into canonical logs, applies the standard
preprocessing steps (per-trace truncation, earliest-N trace selection,
bot-score splits) and derives directly-follows statistics for discovery.

``parse_log`` reads a path and a text stream alike, splitting the blocks of
rows that need no csv with ``str.split``; it applies truncation and
selection as it reads, building events only for the traces kept, and of a
dump in time order holding only their rows; ``preprocess`` applies them to
a log in memory.
"""

from __future__ import annotations

import csv
import heapq
import io
import re
from collections import Counter
from contextlib import nullcontext
from datetime import datetime, timezone
from itertools import accumulate, chain, compress, count, repeat
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence

from .record import Record


class SchemaError(ValueError):
    """The input columns or schema configuration do not match the data."""


class Event(NamedTuple):
    """One repost: (original post, reposting account, epoch second).  A
    named tuple, built in half a dataclass's time; copy with ``_replace``."""

    trace_id: str
    activity: str
    timestamp: int
    bot_score: float | None = None


class Trace(Record):
    """The events of one original post, in time order."""

    __slots__ = _fields = ("trace_id", "events")

    def __init__(self, trace_id: str, events: tuple[Event, ...]) -> None:
        for a, b in zip(events, events[1:]):
            if b.timestamp < a.timestamp:
                raise ValueError(f"trace {trace_id}: timestamps decrease")
        self.trace_id = trace_id
        self.events = events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    @property
    def start(self) -> int:
        return self.events[0].timestamp

    def activities(self) -> tuple[str, ...]:
        return tuple(e.activity for e in self.events)


class EventLog(Record):
    """A sequence of traces with unique ids; the activity universe is derived."""

    __slots__ = _fields = ("traces",)

    def __init__(self, traces: tuple[Trace, ...] = ()) -> None:
        ids = [t.trace_id for t in traces]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate trace ids in event log")
        self.traces = traces

    @property
    def activity_universe(self) -> frozenset[str]:
        return frozenset(e.activity for t in self.traces for e in t.events)

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self.traces)

    def event_count(self) -> int:
        return sum(len(t) for t in self.traces)

    def sequences(self) -> list[tuple[str, ...]]:
        """Activity sequences only, one per trace (timing stripped)."""
        return [t.activities() for t in self.traces]


class LogSchema(Record):
    """Column mapping and formats for delimiter-separated repost dumps.

    ``timestamp_format`` is either ``"iso8601"`` or ``"epoch"`` (integer
    seconds).  ``bot_score`` is optional; when named, the column may be empty
    on individual rows.  ``delimiter`` is one character but no quote or line end.
    """

    __slots__ = _fields = ("trace_id", "activity", "timestamp", "bot_score",
                           "delimiter", "timestamp_format")

    def __init__(self, trace_id: str = "trace_id", activity: str = "activity",
                 timestamp: str = "timestamp", bot_score: str | None = None,
                 delimiter: str = ",", timestamp_format: str = "iso8601") -> None:
        if timestamp_format not in ("iso8601", "epoch"):
            raise SchemaError(f"unknown timestamp format {timestamp_format!r}")
        if len(delimiter) != 1 or delimiter in '"\r\n':
            raise SchemaError(f"delimiter must be one character other than a quote "
                              f"or line end, got {delimiter!r}")
        self.trace_id = trace_id
        self.activity = activity
        self.timestamp = timestamp
        self.bot_score = bot_score
        self.delimiter = delimiter
        self.timestamp_format = timestamp_format


class Dfg(NamedTuple):
    """Directly-follows statistics: adjacent-pair, start and end counts."""

    edge_counts: dict[tuple[str, str], int]
    start_counts: dict[str, int]
    end_counts: dict[str, int]


def _resized(column: memoryview, size: int) -> memoryview:
    """``column``, a memoryview of machine ints over a bytearray, cut or
    extended with zeros to ``size`` items; ``column`` itself is released."""
    data, code, width = column.obj, column.format, column.itemsize
    column.release()
    del data[size * width:]
    data.extend(bytes(size * width - len(data)))
    return memoryview(data).cast(code)


def _parse_iso8601(text: str) -> int:
    raw = text.strip()
    if raw.endswith(("Z", "z")):  # Python 3.10's fromisoformat rejects "Z"
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def _warn(message: str, *args: object) -> None:
    """Log a warning on this module's logger.  ``logging`` is imported here,
    on the first rejected row, so that importing the package does not load it."""
    import logging
    logging.getLogger(__name__).warning(message, *args)


def check_caps(max_events: int | None, max_traces: int | None) -> None:
    if max_events is not None and max_events < 1:
        raise ValueError("max_events must be >= 1")
    if max_traces is not None and max_traces < 1:
        raise ValueError("max_traces must be >= 1")


def _earliest(count: int, start: Callable[[int], int],
              max_traces: int | None) -> Sequence[int]:
    """Indices of the ``max_traces`` of ``count`` items with the earliest
    ``start(index)``, in appearance order; ties break by appearance and
    ``None`` keeps every item."""
    if max_traces is None or count <= max_traces:
        return range(count)
    # as sorted(...)[:max_traces], so equal starts keep appearance order, but
    # holding only max_traces starts at a time
    return sorted(heapq.nsmallest(max_traces, range(count), key=start))


# Characters the row source reads at a time
_BLOCK = 16384


def _header(stream: IO[str], delimiter: str) -> tuple[list[str] | None, int, str]:
    """(cells, lines, rest) of the header row at the start of ``stream``:
    its cells as csv gives them, or ``None`` for an empty stream, the number
    of lines it spans and the text read past it, empty only at the end of
    the stream.  One leading byte-order mark is dropped first, and lines are
    split as in ``_lines``."""
    text = stream.read(_BLOCK).removeprefix("\ufeff")
    while True:
        head = io.StringIO(text, newline="")
        reader = csv.reader(head, delimiter=delimiter)
        cells = next(reader, None)
        rest = head.read()
        # a header that reaches the end of the text read may go on past it
        if rest or not (more := stream.read(_BLOCK)):
            return cells, reader.line_num, rest
        text += more


def _lines(stream: IO[str], text: str) -> Iterator[str]:
    """The lines of ``text`` and then of the rest of ``stream``, split at
    LF, CR and CRLF as ``io.StringIO(newline="")`` splits them, whatever
    line ends the stream itself reads.  ``_BLOCK`` characters are read at a
    time, and each chunk's last line waits for the next unless it ends at
    an LF: it may be unfinished, or a CR that the next chunk's LF ends."""
    while True:
        block = stream.read(_BLOCK)
        lines = io.StringIO(text + block, newline="").readlines()
        text = lines.pop() if block and lines[-1][-1] != "\n" else ""
        yield from lines
        if not block:
            return


def _block_rows(stream: IO[str], delimiter: str, done: int,
                block: str) -> Iterator[Iterator[tuple[int, list[str]]]]:
    """(line before the row, row) pairs of ``block`` and then the rest of
    ``stream``, a text stream of which ``done`` lines are read, one iterator
    of them per block of ``_BLOCK`` characters; ``block`` is empty only at
    the end of the stream.

    A block, after the previous block's unfinished last line, that holds no
    quote, carriage return or NUL and no more characters than
    ``csv.field_size_limit()`` is split at line feeds and each line at
    ``delimiter``: the cells that csv gives such a line.  An empty line is
    a blank row, counted but not returned, as csv returns no cells for it.
    From the first other block on, csv reads the rest, split into lines by
    ``_lines``."""
    limit = csv.field_size_limit()
    carry = ""
    while True:
        text = carry + block
        if '"' in text or "\r" in text or "\0" in text or len(text) > limit:
            reader = csv.reader(_lines(stream, text), delimiter=delimiter)
            ends = map(attrgetter("line_num"), repeat(reader))
            yield zip(map(done.__add__, ends), reader)
            return
        lines = text.split("\n")
        if block:
            carry = lines.pop()
        yield compress(zip(count(done), map(str.split, lines, repeat(delimiter))), lines)
        if not block:
            return
        done += len(lines)
        block = stream.read(_BLOCK)


def parse_log(source: IO[str] | str | Path,
              schema: LogSchema = LogSchema(),
              max_events: int | None = None,
              max_traces: int | None = None) -> EventLog:
    """Parse a delimiter-separated repost dump into a canonical event log.

    ``source`` is a path, opened as UTF-8 and closed on return, or a text
    stream, read as given and left open; a path is opened with
    ``newline=""``, and a stream's own newline mode decides the text it
    delivers.  That text is split into lines at LF, CR and CRLF, as
    ``io.StringIO(text, newline="")`` splits it, whatever line ends the
    stream reads by itself.  csv reads the header, and the rows are read in
    blocks of the text: a block that holds only LF line ends, no quote or
    NUL, and no more characters than ``csv.field_size_limit()`` is split
    with ``str.split``, which gives the cells csv would; from the first
    block that does not, csv reads the rest.  One leading byte-order mark
    (U+FEFF, as "CSV UTF-8" exports write) is dropped before the header is
    split into cells, so a quoted first cell stays quoted.  Rows
    are grouped by trace id and sorted by timestamp within each trace
    (stable, so simultaneous reposts keep file order).  Malformed rows, an
    epoch stamp outside the int64 range among them, are rejected and logged
    with the line they start on; a missing mandatory column raises
    :class:`SchemaError`.

    ISO-8601 stamps of the form ``YYYY-MM-DDTHH:MM:SS`` followed by ``Z``,
    ``z`` or ``+00:00``, each optionally after a zero fraction ``.000``,
    cost two dict lookups once a stamp of their UTC hour and one of their
    ``MM:SS`` + designator tail have parsed; every other form (padding, other
    offsets, non-zero fractions, other separators) goes through the full
    parse and gives the same value.

    The caps give exactly ``preprocess(parse_log(source, schema), max_events,
    max_traces)``, but only the traces kept are ever built as events.  A
    held row is 16 bytes of machine ints, and each trace's start is kept up
    to date as its rows arrive.  A capped parse holds, drops or re-reads a
    valid row by one rule.  A row is in order when its second is at or after
    that of every valid row before it.  While every row is in order, the
    ``max_traces`` traces that appear first are the ones kept, and a row of
    any other trace is dropped: still checked, warned of and counted.  The
    first row out of order ends the dropping: with no row dropped yet, every
    valid row is held from there on; after a drop, the input is read a
    second time from where the call started, with no warning logged twice.
    A stream that is not ``seekable()`` holds every valid row.
    """
    check_caps(max_events, max_traces)
    iso = schema.timestamp_format == "iso8601"
    # Memos of _parse_iso8601 for this call: ``hours`` maps an hour head
    # "YYYY-MM-DDTHH:" to the epoch second the hour starts at, ``tails`` a
    # tail "MM:SS" + UTC designator to its offset into the hour.  A stamp
    # that parses fills both when it is strict as a whole.
    hours: dict[str, int] = {}
    tails: dict[str, int] = {}
    strict = re.compile(r"\d{4}-\d\d-\d\dT(?:[01]\d|2[0-3]):([0-5]\d):([0-5]\d)"
                        r"(?:\.000)?(?:[Zz]|\+00:00)", re.ASCII) if iso else None
    opened = (open(source, encoding="utf-8", newline="") if isinstance(source, (str, Path))
              else nullcontext(source))
    with opened as stream:
        # A capped parse drops rows while they come in time order; a stream
        # it cannot read again holds every row.
        start = None
        if max_traces is not None and stream.seekable():
            try:
                start = stream.tell()
            except OSError:  # a file iterated by next() cannot tell
                pass
        header, done, rest = _header(stream, schema.delimiter)
        if header is None:
            raise SchemaError("empty input: header row required")

        positions = {name.strip(): i for i, name in enumerate(header)}
        needed = [schema.trace_id, schema.activity, schema.timestamp]
        missing = [c for c in needed if c not in positions]
        if missing:
            raise SchemaError(f"missing mandatory column(s): {', '.join(missing)}")
        if schema.bot_score is not None and schema.bot_score not in positions:
            raise SchemaError(f"missing bot-score column: {schema.bot_score}")

        i_trace = positions[schema.trace_id]
        i_act = positions[schema.activity]
        i_ts = positions[schema.timestamp]
        i_bot = positions[schema.bot_score] if schema.bot_score is not None else None
        width = max(i_trace, i_act, i_ts, i_bot if i_bot is not None else 0)

        # the number of an (account, score) pair by account cell, and with a
        # score column, by account cell and then by score cell
        pair_numbers: dict[str, int] | dict[str, dict[str, int]] = {}
        unseen: dict[str, int] = {}  # no score cell is known for a new account cell
        pairs: list[tuple[str, float | None]] = []  # by number
        accounts: dict[str, str] = {}
        quiet = 0  # a rejected row that starts on this line or before was warned of
        while True:
            rows = chain.from_iterable(_block_rows(stream, schema.delimiter, done, rest))
            # Every valid row that may be kept is held until the caps can be
            # applied, as row ``held`` of three columns of machine ints: its
            # epoch second, the number of its (account, score) pair and a
            # link to the previous row of its trace, -1 at the trace's first.
            # Each trace, numbered in order of appearance, keeps its last row
            # and its earliest second.  The columns are memoryviews of
            # bytearrays, grown by an eighth when full: an item is stored in
            # less time than an ``array.append`` takes, and no extension
            # module is loaded.
            seconds, pair_of, link, last, starts = (memoryview(bytearray()).cast(code)
                                                    for code in "qiiiq")
            numbers: dict[str, int] = {}
            held = room = rejected = dropped = 0
            latest = -2 ** 63  # the latest second of a valid row so far
            # While the rows come in time order, each at or after ``latest``,
            # the first ``full`` traces to appear are the ones kept, and a row
            # of any other trace is dropped.  -1: no row is dropped.
            full = -1 if start is None else max_traces
            for before, row in rows:  # the row starts on line before + 1
                if held == room:
                    room += room // 8 + 1024
                    seconds, pair_of, link = (_resized(c, room)
                                              for c in (seconds, pair_of, link))
                try:
                    if len(row) <= width:
                        if not row:
                            continue  # a blank line
                        raise ValueError(f"expected at least {width + 1} fields, "
                                         f"got {len(row)}")
                    trace_id = row[i_trace].strip()
                    if not trace_id:
                        raise ValueError("empty trace id")
                    pair = (pair_numbers.get(row[i_act]) if i_bot is None
                            else pair_numbers.get(row[i_act], unseen).get(row[i_bot]))
                    if pair is None:
                        activity = row[i_act].strip()
                        if not activity:
                            raise ValueError("empty activity")
                    cell = row[i_ts]
                    if not iso:
                        second = int(float(cell))
                    else:
                        try:
                            second = hours[cell[:14]] + tails[cell[14:]]
                        except KeyError:
                            second = _parse_iso8601(cell)
                            match = strict.fullmatch(cell)
                            if match:
                                offset = tails.setdefault(
                                    cell[14:], 60 * int(match[1]) + int(match[2]))
                                hours.setdefault(cell[:14], second - offset)
                    try:
                        seconds[held] = second  # the row's slot until it is held
                    except ValueError:  # the second does not fit an int64
                        raise ValueError(f"timestamp {cell.strip()} outside int64") from None
                    if pair is None:
                        score = None
                        if i_bot is not None and row[i_bot].strip():
                            score = float(row[i_bot])
                            if not 0.0 <= score <= 1.0:
                                raise ValueError(f"bot score {score} outside [0, 1]")
                        pair = len(pairs)
                        if i_bot is None:
                            pair_numbers[row[i_act]] = pair
                        else:
                            pair_numbers.setdefault(row[i_act], {})[row[i_bot]] = pair
                        pairs.append((accounts.setdefault(activity, activity), score))
                except (ValueError, OverflowError) as exc:
                    rejected += 1
                    if before >= quiet:
                        _warn("line %d: rejected row (%s)", before + 1, exc)
                    continue
                if second >= latest:
                    latest = second
                elif full > 0:  # the first row out of order
                    if dropped:  # a dropped trace may now be kept
                        break
                    full = -1
                n = numbers.get(trace_id)
                if n is None:
                    n = len(numbers)
                    if n == full:
                        dropped += 1
                        continue
                    if n == len(starts):  # room for ``full`` traces at most
                        size = n + n // 8 + 256
                        last, starts = (_resized(c, min(size, full) if n < full else size)
                                        for c in (last, starts))
                    numbers[trace_id] = n
                    link[held] = -1
                    starts[n] = second
                else:
                    link[held] = last[n]
                    if second < starts[n]:
                        starts[n] = second
                last[n] = held
                pair_of[held] = pair
                held += 1
            else:
                break
            # Read the input again, holding every row, and warn only of the
            # rows past this one.
            quiet = before + 1
            stream.seek(start)
            start = None
            _, done, rest = _header(stream, schema.delimiter)

    if rejected:
        _warn("rejected %d of %d rows", rejected, held + dropped + rejected)

    ids = list(numbers)
    del numbers
    kept = _earliest(len(ids), starts.__getitem__, max_traces)
    del starts
    # From the last kept trace to the first, so that the columns can be cut
    # once half of them lies past every row of the traces still to build:
    # an uncapped parse hands its rows back as it builds their events.
    reach = list(accumulate((last[i] for i in kept), max))
    traces = []
    new = tuple.__new__  # an Event in half the time of its constructor
    for i in reversed(kept):
        reach.pop()
        rows = []
        r = last[i]
        while r >= 0:
            rows.append((seconds[r], pairs[pair_of[r]]))
            r = link[r]
        rows.reverse()
        rows.sort(key=itemgetter(0))  # stable: ties keep file order
        trace_id = ids[i]
        traces.append(Trace(trace_id, tuple(
            new(Event, (trace_id, activity, timestamp, bot_score))
            for timestamp, (activity, bot_score) in rows[:max_events])))
        if reach and reach[-1] < len(link) // 2:
            seconds, pair_of, link = (_resized(c, reach[-1] + 1)
                                      for c in (seconds, pair_of, link))
    traces.reverse()
    return EventLog(tuple(traces))


def write_log(log: EventLog, dest: IO[str] | str | Path,
              schema: LogSchema = LogSchema()) -> None:
    """Serialize a log back to the delimiter-separated form ``parse_log`` reads.

    Traces with no events cannot be represented row-wise and are skipped.
    """
    opened = (open(dest, "w", encoding="utf-8", newline="") if isinstance(dest, (str, Path))
              else nullcontext(dest))
    with opened as stream:
        writer = csv.writer(stream, delimiter=schema.delimiter, lineterminator="\n")
        header = [schema.trace_id, schema.activity, schema.timestamp]
        if schema.bot_score is not None:
            header.append(schema.bot_score)
        writer.writerow(header)
        for trace in log.traces:
            for event in trace.events:
                if schema.timestamp_format == "epoch":
                    ts = str(event.timestamp)
                else:
                    ts = datetime.fromtimestamp(
                        event.timestamp, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
                row = [event.trace_id, event.activity, ts]
                if schema.bot_score is not None:
                    row.append("" if event.bot_score is None else repr(event.bot_score))
                writer.writerow(row)


def preprocess(log: EventLog, max_events: int | None = 10,
               max_traces: int | None = None) -> EventLog:
    """Truncate traces to their earliest ``max_events`` events and keep only
    the ``max_traces`` traces with the earliest first event.

    Trace selection ties break by order of appearance.  ``None`` lifts
    either cap.  An empty log passes through unchanged.
    """
    check_caps(max_events, max_traces)
    # Truncation keeps each trace's first event, so selecting first keys on
    # the same start times and rebuilds only the kept traces.
    traces = log.traces
    kept = _earliest(len(traces), lambda i: traces[i].start if traces[i].events else 0,
                     max_traces)
    return EventLog(tuple(Trace(traces[i].trace_id, traces[i].events[:max_events])
                          for i in kept))


def split_by_bot_score(log: EventLog, high: float = 0.9,
                       low: float = 0.1) -> tuple[EventLog, EventLog]:
    """Partition events by bot score: (> high, < low); the mid band is dropped.

    Every event must carry a bot score.  Traces left empty after filtering
    are dropped from the corresponding output.
    """
    if not high > low:
        raise ValueError(f"high ({high}) must exceed low ({low})")
    for trace in log.traces:
        for event in trace.events:
            if event.bot_score is None:
                raise SchemaError(
                    f"trace {trace.trace_id}: event without bot score")

    def select(keep) -> EventLog:
        out = []
        for trace in log.traces:
            events = tuple(e for e in trace.events if keep(e.bot_score))
            if events:
                out.append(Trace(trace.trace_id, events))
        return EventLog(tuple(out))

    return (select(lambda s: s > high), select(lambda s: s < low))


def dfg_from_sequences(seqs: Iterable[tuple[str, ...]]) -> Dfg:
    """Count directly-follows pairs plus start/end activities over ``seqs``;
    ``log.sequences()`` gives a log's."""
    edges: Counter[tuple[str, str]] = Counter()
    starts: Counter[str] = Counter()
    ends: Counter[str] = Counter()
    for seq in seqs:
        if not seq:
            continue
        starts[seq[0]] += 1
        ends[seq[-1]] += 1
        for a, b in zip(seq, seq[1:]):
            edges[(a, b)] += 1
    return Dfg(dict(edges), dict(starts), dict(ends))
