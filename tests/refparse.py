"""Reference parser for ``eventlog.parse_log``'s tests.

It is the plain row loop: one ``(timestamp, account, score)`` tuple per
valid row, no object shared between rows, and the earliest-N rule written
out as a sort on (first timestamp, appearance).  The library keeps a compact
store instead; both must give the same log and the same warnings.  Each
ISO-8601 stamp is parsed on its own here, so the library's per-hour memo
has an oracle too.  A warning names the line its row starts on, and a
timestamp outside the 64-bit range of the library's store is rejected.
"""

import csv
import io
import logging
from datetime import datetime, timezone

from repostminer.eventlog import Event, EventLog, LogSchema, Trace


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def _seconds(cell: str, timestamp_format: str) -> int:
    """Epoch second of one timestamp cell: ``int(float(cell))`` for epoch
    stamps, else ``fromisoformat`` after rewriting a trailing ``Z`` (which
    Python 3.10 rejects), with naive stamps read as UTC."""
    if timestamp_format == "epoch":
        return int(float(cell))
    stamp = cell.strip()
    if stamp[-1:] in ("Z", "z"):
        stamp = stamp[:-1] + "+00:00"
    moment = datetime.fromisoformat(stamp)
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return int((moment - _EPOCH).total_seconds())


def reference_parse(text: str, schema: LogSchema, max_events=None, max_traces=None):
    """(log, warnings) for the dump ``text`` read with ``schema``'s timestamp
    format; each warning is ``(logging.WARNING, message)`` as ``parse_log``
    logs it."""
    warnings = []
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=schema.delimiter)
    positions = {name.strip(): i for i, name in enumerate(next(reader))}
    end = reader.line_num  # the last line of the header, then of each row
    i_trace = positions[schema.trace_id]
    i_act = positions[schema.activity]
    i_ts = positions[schema.timestamp]
    i_bot = positions[schema.bot_score] if schema.bot_score is not None else None
    width = max(i_trace, i_act, i_ts, i_bot if i_bot is not None else 0)

    by_trace = {}
    total = rejected = 0
    for row in reader:
        line, end = end + 1, reader.line_num
        if not row:
            continue
        total += 1
        try:
            if len(row) <= width:
                raise ValueError(f"expected at least {width + 1} fields, got {len(row)}")
            trace_id = row[i_trace].strip()
            account = row[i_act].strip()
            if not trace_id:
                raise ValueError("empty trace id")
            if not account:
                raise ValueError("empty activity")
            timestamp = _seconds(row[i_ts], schema.timestamp_format)
            if not -2 ** 63 <= timestamp < 2 ** 63:
                raise ValueError(f"timestamp {row[i_ts].strip()} outside int64")
            score = None
            if i_bot is not None and row[i_bot].strip():
                score = float(row[i_bot])
                if not 0.0 <= score <= 1.0:
                    raise ValueError(f"bot score {score} outside [0, 1]")
        except (ValueError, OverflowError) as exc:
            rejected += 1
            warnings.append((logging.WARNING, f"line {line}: rejected row ({exc})"))
            continue
        if trace_id not in by_trace:
            by_trace[trace_id] = []
        by_trace[trace_id].append((timestamp, account, score))
    if rejected:
        warnings.append((logging.WARNING, f"rejected {rejected} of {total} rows"))

    groups = list(by_trace.items())
    ranked = sorted(range(len(groups)),
                    key=lambda i: (min(ts for ts, _, _ in groups[i][1]), i))
    traces = []
    for i in sorted(ranked[:max_traces]):
        trace_id, rows = groups[i]
        rows = sorted(rows, key=lambda r: r[0])[:max_events]
        traces.append(Trace(trace_id, tuple(Event(trace_id, a, ts, s) for ts, a, s in rows)))
    return EventLog(tuple(traces)), warnings
