"""Event logs of repost cascades.

A trace collects every repost of one original post, ordered by time.  Each
event names the post being shared (trace id), the account that shared it
(activity) and the second at which it happened.  This module parses
delimiter-separated dumps into canonical logs, applies the standard
preprocessing steps (per-trace truncation, earliest-N trace selection,
bot-score splits) and derives directly-follows statistics for discovery.

``parse_log`` applies truncation and selection as it reads, building events
only for the traces kept; ``preprocess`` applies them to a log in memory.
"""

from __future__ import annotations

import csv
import heapq
import re
from collections import Counter
from contextlib import nullcontext
from datetime import datetime, timezone
from itertools import chain
from operator import add, itemgetter
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


def parse_log(source: IO[str] | str | Path,
              schema: LogSchema = LogSchema(),
              max_events: int | None = None,
              max_traces: int | None = None) -> EventLog:
    """Parse a delimiter-separated repost dump into a canonical event log.

    ``source`` is a path, opened as UTF-8 and closed on return, or a text
    stream, read as given and left open.  One leading byte-order mark
    (U+FEFF, as "CSV UTF-8" exports write) is dropped before the header is
    split into cells, so a quoted first cell stays quoted.  Rows
    are grouped by trace id and sorted by timestamp within each trace
    (stable, so simultaneous reposts keep file order).  Malformed rows are
    rejected and logged with their line number; a missing mandatory column
    raises :class:`SchemaError`.

    ISO-8601 stamps of the form ``YYYY-MM-DDTHH:MM:SS`` followed by ``Z``,
    ``z`` or ``+00:00``, each optionally after a zero fraction ``.000``,
    cost two dict lookups once a stamp of their UTC hour and one of their
    ``MM:SS`` + designator tail have parsed; every other form (padding, other
    offsets, non-zero fractions, other separators) goes through the full
    parse and gives the same value.

    The caps give exactly ``preprocess(parse_log(source, schema), max_events,
    max_traces)``, but only the traces kept are ever built as events.
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
    opened = (open(source, encoding="utf-8", newline="")
              if isinstance(source, (str, Path)) else nullcontext(source))
    with opened as stream:
        lines = iter(stream)
        first = next(lines, None)
        if first is None:
            raise SchemaError("empty input: header row required")
        reader = csv.reader(chain([first.removeprefix("\ufeff")], lines),
                            delimiter=schema.delimiter)
        header = next(reader)

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

        # Every valid row is held until the caps can be applied, as three
        # shared objects in its trace's flat list: the start of its hour, its
        # offset into the hour (an epoch stamp is held whole, offset 0) and
        # the (account, score) pair of its account and score cells.
        by_trace: dict[str, list[int | tuple[str, float | None]]] = {}
        pairs: dict[str | tuple[str, str], tuple[str, float | None]] = {}
        accounts: dict[str, str] = {}
        blank = 0
        rejected = 0
        lineno = 1
        for lineno, row in enumerate(reader, start=2):
            try:
                if len(row) <= width:
                    if not row:
                        blank += 1
                        continue
                    raise ValueError(f"expected at least {width + 1} fields, got {len(row)}")
                trace_id = row[i_trace].strip()
                if not trace_id:
                    raise ValueError("empty trace id")
                key = row[i_act] if i_bot is None else (row[i_act], row[i_bot])
                pair = pairs.get(key)
                if pair is None:
                    activity = row[i_act].strip()
                    if not activity:
                        raise ValueError("empty activity")
                cell = row[i_ts]
                if not iso:
                    base, offset = int(float(cell)), 0
                else:
                    try:
                        base = hours[cell[:14]]
                        offset = tails[cell[14:]]
                    except KeyError:
                        base, offset = _parse_iso8601(cell), 0
                        match = strict.fullmatch(cell)
                        if match:
                            offset = tails.setdefault(
                                cell[14:], 60 * int(match[1]) + int(match[2]))
                            base = hours.setdefault(cell[:14], base - offset)
                if pair is None:
                    score = None
                    if i_bot is not None and row[i_bot].strip():
                        score = float(row[i_bot])
                        if not 0.0 <= score <= 1.0:
                            raise ValueError(f"bot score {score} outside [0, 1]")
                    pair = pairs[key] = (accounts.setdefault(activity, activity), score)
            except (ValueError, OverflowError) as exc:
                rejected += 1
                _warn("line %d: rejected row (%s)", lineno, exc)
                continue
            flat = by_trace.get(trace_id)
            if flat is None:
                flat = by_trace[trace_id] = []
            flat += (base, offset, pair)

    if rejected:
        _warn("rejected %d of %d rows", rejected, lineno - 1 - blank)

    ids = list(by_trace)
    stores = list(by_trace.values())
    del by_trace
    traces = []
    new = tuple.__new__  # an Event in half the time of its constructor
    for i in _earliest(len(ids), lambda i: min(map(add, stores[i][::3], stores[i][1::3])),
                       max_traces):
        flat, stores[i] = stores[i], None  # the rows go once built
        # a zero offset keeps the held int: an epoch stamp is not copied
        rows = sorted(zip([b + o if o else b for b, o in zip(flat[::3], flat[1::3])],
                          flat[2::3]), key=itemgetter(0))  # stable: ties keep file order
        trace_id = ids[i]
        traces.append(Trace(trace_id, tuple(
            new(Event, (trace_id, activity, timestamp, bot_score))
            for timestamp, (activity, bot_score) in rows[:max_events])))
    return EventLog(tuple(traces))


def write_log(log: EventLog, dest: IO[str] | str | Path,
              schema: LogSchema = LogSchema()) -> None:
    """Serialize a log back to the delimiter-separated form ``parse_log`` reads.

    Traces with no events cannot be represented row-wise and are skipped.
    """
    own = isinstance(dest, (str, Path))
    stream = open(dest, "w", encoding="utf-8", newline="") if own else dest
    try:
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
    finally:
        if own:
            stream.close()


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
