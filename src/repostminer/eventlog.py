"""Event logs of repost cascades.

A trace collects every repost of one original post, ordered by time.  Each
event names the post being shared (trace id), the account that shared it
(activity) and the second at which it happened.  This module parses
delimiter-separated dumps into canonical logs, applies the standard
preprocessing steps (per-trace truncation, earliest-N trace selection,
bot-score splits) and derives directly-follows statistics for discovery.
"""

from __future__ import annotations

import csv
import logging
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping

logger = logging.getLogger(__name__)


class SchemaError(ValueError):
    """The input columns or schema configuration do not match the data."""


@dataclass(frozen=True)
class Event:
    """One repost: (original post, reposting account, epoch second)."""

    trace_id: str
    activity: str
    timestamp: int
    bot_score: float | None = None


@dataclass(frozen=True)
class Trace:
    trace_id: str
    events: tuple[Event, ...]

    def __post_init__(self) -> None:
        for a, b in zip(self.events, self.events[1:]):
            if b.timestamp < a.timestamp:
                raise ValueError(f"trace {self.trace_id}: timestamps decrease")

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    @property
    def start(self) -> int:
        return self.events[0].timestamp

    def activities(self) -> tuple[str, ...]:
        return tuple(e.activity for e in self.events)


@dataclass(frozen=True)
class EventLog:
    """A sequence of traces with unique ids; the activity universe is derived."""

    traces: tuple[Trace, ...] = ()

    def __post_init__(self) -> None:
        ids = [t.trace_id for t in self.traces]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate trace ids in event log")

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


@dataclass(frozen=True)
class LogSchema:
    """Column mapping and formats for delimiter-separated repost dumps.

    ``timestamp_format`` is either ``"iso8601"`` or ``"epoch"`` (integer
    seconds).  ``bot_score`` is optional; when named, the column may be empty
    on individual rows.
    """

    trace_id: str = "trace_id"
    activity: str = "activity"
    timestamp: str = "timestamp"
    bot_score: str | None = None
    delimiter: str = ","
    timestamp_format: str = "iso8601"

    def __post_init__(self) -> None:
        if self.timestamp_format not in ("iso8601", "epoch"):
            raise SchemaError(f"unknown timestamp format {self.timestamp_format!r}")


@dataclass(frozen=True)
class Dfg:
    """Directly-follows statistics: adjacent-pair, start and end counts."""

    edge_counts: dict[tuple[str, str], int]
    start_counts: dict[str, int]
    end_counts: dict[str, int]


def _parse_timestamp(text: str, fmt: str) -> int:
    if fmt == "epoch":
        return int(float(text))
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def parse_log(source: IO[str] | str | Path,
              schema: LogSchema = LogSchema()) -> EventLog:
    """Parse a delimiter-separated repost dump into a canonical event log.

    ``source`` is a path, opened as UTF-8 and closed on return, or a text
    stream, read as given and left open.  Rows are grouped by trace id and
    sorted by timestamp within each trace (stable, so simultaneous reposts
    keep file order).  Malformed rows are rejected and logged with their
    line number; a missing mandatory column raises :class:`SchemaError`.
    """
    opened = (open(source, encoding="utf-8", newline="")
              if isinstance(source, (str, Path)) else nullcontext(source))
    with opened as stream:
        reader = csv.reader(stream, delimiter=schema.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty input: header row required") from None

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

        by_trace: dict[str, list[Event]] = {}
        total = 0
        rejected = 0
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            total += 1
            try:
                width = max(i_trace, i_act, i_ts, i_bot if i_bot is not None else 0)
                if len(row) <= width:
                    raise ValueError(f"expected at least {width + 1} fields, got {len(row)}")
                trace_id = row[i_trace].strip()
                activity = row[i_act].strip()
                if not trace_id:
                    raise ValueError("empty trace id")
                if not activity:
                    raise ValueError("empty activity")
                timestamp = _parse_timestamp(row[i_ts], schema.timestamp_format)
                bot_score: float | None = None
                if i_bot is not None and row[i_bot].strip():
                    bot_score = float(row[i_bot])
                    if not 0.0 <= bot_score <= 1.0:
                        raise ValueError(f"bot score {bot_score} outside [0, 1]")
            except (ValueError, OverflowError) as exc:
                rejected += 1
                logger.warning("line %d: rejected row (%s)", lineno, exc)
                continue
            by_trace.setdefault(trace_id, []).append(
                Event(trace_id, activity, timestamp, bot_score))

    if rejected:
        logger.warning("rejected %d of %d rows", rejected, total)

    traces = []
    for trace_id, events in by_trace.items():
        events.sort(key=lambda e: e.timestamp)  # stable: ties keep file order
        traces.append(Trace(trace_id, tuple(events)))
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


def preprocess(log: EventLog, max_events: int = 10,
               max_traces: int | None = None) -> EventLog:
    """Truncate traces to their earliest ``max_events`` events and keep only
    the ``max_traces`` traces with the earliest first event.

    Trace selection ties break by order of appearance.  ``max_traces=None``
    keeps every trace.  An empty log passes through unchanged.
    """
    if max_events < 1:
        raise ValueError("max_events must be >= 1")
    if max_traces is not None and max_traces < 1:
        raise ValueError("max_traces must be >= 1")

    kept = log.traces
    if max_traces is not None and len(kept) > max_traces:
        # Truncation keeps each trace's first event, so selecting first
        # keys on the same start times and rebuilds only the kept traces.
        order = sorted(range(len(kept)),
                       key=lambda i: (kept[i].start if kept[i].events else 0, i))
        keep = set(order[:max_traces])
        kept = tuple(t for i, t in enumerate(kept) if i in keep)
    return EventLog(tuple(replace(t, events=t.events[:max_events]) for t in kept))


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


def build_dfg(log: EventLog) -> Dfg:
    """Count directly-follows pairs plus start/end activities over the log."""
    return dfg_from_sequences(log.sequences())


def dfg_from_sequences(seqs: Iterable[tuple[str, ...]]) -> Dfg:
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
