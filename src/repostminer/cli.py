"""Batch command line: discover, analyze, simulate, compare, export-dot.

``discover`` runs the whole pipeline per input log (parse, which applies
the event and trace caps as it reads, optional bot-score split, discovery,
enrichment, metrics) and writes
``report.json``, ``report.csv``, ``net.json``, ``fspn.json``, ``model.dot``
and ``conformance.json`` into one directory per run.  The other subcommands
re-run individual stages from those artifacts.  Any failure in a stage ends
the command with exit status 1 and ``<command>: error in stage <stage>: ...``.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from . import analysis, discovery, eventlog, petri, stochastic
from .record import Record

DEFAULT_SEED = 42


class PipelineError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


@contextmanager
def _stage(name: str) -> Iterator[None]:
    """Re-raise any failure in the block as a :class:`PipelineError` of stage
    ``name``; a ``PipelineError`` from a nested stage passes through."""
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, f"{type(exc).__name__}: {exc}") from exc


# Each config-file key: its default, the types ``json.load`` may give its
# value, and the words an error message uses for them; a bool is no integer
# here.  The default ``None`` of ``inputs`` stands for a new empty list.
_CONFIG_KEYS = {
    "inputs": (None, (list,), "a list of paths"),
    "out_dir": (Path("out"), (str,), "a path"),
    "trace_column": ("trace_id", (str,), "a string"),
    "activity_column": ("activity", (str,), "a string"),
    "timestamp_column": ("timestamp", (str,), "a string"),
    "bot_score_column": (None, (str, type(None)), "a string or null"),
    "delimiter": (",", (str,), "a string"),
    "timestamp_format": ("iso8601", (str,), "a string"),
    "max_events": (10, (int,), "an integer"),
    "max_traces": (None, (int, type(None)), "an integer or null"),
    "noise_threshold": (0.2, (int, float), "a number"),
    "split_bot_scores": (False, (bool,), "true or false"),
    "bot_high": (0.9, (int, float), "a number"),
    "bot_low": (0.1, (int, float), "a number"),
    "entropy_log_base": (None, (int, float, type(None)), "a number or null"),
}


class PipelineConfig(Record):
    """Settings of a ``discover`` run, given as keyword arguments named by
    ``_CONFIG_KEYS``, which holds the default of each one left out; mutable,
    and checked by :meth:`check` when built and again once command-line
    flags are applied."""

    __slots__ = _fields = tuple(_CONFIG_KEYS)
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, **settings: object) -> None:
        for key in settings:
            if key not in _CONFIG_KEYS:
                raise TypeError(f"PipelineConfig() got an unexpected keyword "
                                f"argument {key!r}")
        for key, (default, _, _) in _CONFIG_KEYS.items():
            setattr(self, key, settings.get(key, default))
        if self.inputs is None:
            self.inputs = []
        self.check()

    def check(self) -> None:
        """Raise ``ValueError`` unless the settings are consistent."""
        if not 0.0 <= self.noise_threshold <= 1.0:
            raise ValueError("noise threshold must lie in [0, 1]")
        eventlog.check_caps(self.max_events, self.max_traces)
        if not self.bot_high > self.bot_low:
            raise ValueError(f"bot_high ({self.bot_high}) must exceed "
                             f"bot_low ({self.bot_low})")
        analysis.check_log_base(self.entropy_log_base)
        writers: dict[str, Path] = {}
        for path in self.inputs:
            for name in self.run_names(path):
                if name in writers:
                    raise ValueError(f"inputs {writers[name]} and {path} would both "
                                     f"write run {name!r}")
                writers[name] = path

    def run_names(self, path: Path) -> list[str]:
        """The run directories input ``path`` writes under ``out_dir``: its
        stem, or with a bot-score split one per half, high first."""
        if self.split_bot_scores:
            return [f"{path.stem}-bot_high", f"{path.stem}-bot_low"]
        return [path.stem]

    def schema(self) -> eventlog.LogSchema:
        return eventlog.LogSchema(
            trace_id=self.trace_column,
            activity=self.activity_column,
            timestamp=self.timestamp_column,
            bot_score=self.bot_score_column,
            delimiter=self.delimiter,
            timestamp_format=self.timestamp_format,
        )

    @classmethod
    def from_file(cls, path: Path) -> "PipelineConfig":
        """The config a JSON object of settings gives, each checked for
        its JSON type, with the defaults for the keys it leaves out."""
        raw = json.loads(path.read_text())
        if not isinstance(raw, dict):
            raise ValueError(f"a config file holds a JSON object, got {raw!r}")
        unknown = set(raw) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in raw.items():
            _, types, expected = _CONFIG_KEYS[key]
            if type(value) not in types or (
                    key == "inputs" and not all(type(p) is str for p in value)):
                raise ValueError(f"{key!r} must be {expected}, got {value!r}")
        if "inputs" in raw:
            raw["inputs"] = [Path(p) for p in raw["inputs"]]
        if "out_dir" in raw:
            raw["out_dir"] = Path(raw["out_dir"])
        return cls(**raw)


# Each ``--schema`` key and the config field it sets.
SCHEMA_KEYS = {"trace_id": "trace_column", "activity": "activity_column",
               "timestamp": "timestamp_column", "bot_score": "bot_score_column",
               "format": "timestamp_format"}


def parse_schema_spec(text: str) -> dict[str, str]:
    """Parse ``trace_id=COL,activity=COL,timestamp=COL[,bot_score=COL][,format=epoch]``."""
    out: dict[str, str] = {}
    for part in text.split(","):
        if not part.strip():
            continue
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or not value:
            raise ValueError(f"schema entries are key=value, got {part!r}")
        if key not in SCHEMA_KEYS:
            raise ValueError(f"unknown schema key {key!r}; expected one of "
                             f"{', '.join(SCHEMA_KEYS)}")
        out[key] = value.strip()
    return out


def _dot_string(text: str) -> str:
    """``text`` as a DOT double-quoted string, its backslashes and quotes
    escaped so that any account id stays one string with its own text."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(net: petri.PetriNet,
               arc_probabilities: dict[tuple[str, str], float] | None = None) -> str:
    """DOT text: places as circles, labeled transitions as boxes, silent
    transitions as filled black boxes; probabilities label place arcs."""
    lines = ["digraph net {", "  rankdir=LR;"]
    for p in net.places:
        tokens = net.initial_marking.get(p, 0)
        label = str(tokens) if tokens else ""
        lines.append(f'  {_dot_string(p)} [shape=circle, label="{label}"];')
    for t in net.transitions:
        label = net.label(t)
        if label is None:
            lines.append(f'  {_dot_string(t)} [shape=box, style=filled, '
                         f'fillcolor=black, label=""];')
        else:
            lines.append(f'  {_dot_string(t)} [shape=box, label={_dot_string(label)}];')
    for src, dst in net.arcs:
        suffix = ""
        if arc_probabilities is not None and (src, dst) in arc_probabilities:
            suffix = f' [label="{arc_probabilities[(src, dst)]:.6g}"]'
        lines.append(f'  {_dot_string(src)} -> {_dot_string(dst)}{suffix};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _csv_row(values: dict[str, float]) -> str:
    return ",".join(map(repr, values.values()))


def measure(net: petri.PetriNet, tally: stochastic.ReplayTally,
            entropy_log_base: float | None, provenance: dict[str, object],
            ) -> tuple[dict[str, float], dict[str, str], petri.PetriNet]:
    """Key -> value of each ``analysis.MEASURES`` row on a replayed net, given
    the tally of its replays, file name -> text of its reports, and the
    display net of the structural rows."""
    display_net = discovery.reduce_net(net)
    stats = stochastic.waiting_time_stats(tally)
    run = analysis.MeasuredRun(display_net, tally, stats, entropy_log_base)
    values = {m.key: m.value(run) for m in analysis.MEASURES}
    prefix_only = sum(index is None for _, index in tally.failures)
    files = {
        "report.json": petri.json_text({**values, "provenance": provenance,
                                        "per_user_mean_waits": stats.per_activity}),
        "report.csv": (",".join(m.column for m in analysis.MEASURES) + "\n"
                       + _csv_row(values) + "\n"),
        "conformance.json": petri.json_text({
            "total": tally.conforming + len(tally.failures),
            "conforming": tally.conforming,
            "nonconforming": len(tally.failures),
            "prefix_only": prefix_only,
            "failing": len(tally.failures) - prefix_only,
            "failures": [{"trace_id": trace_id, "failed_index": index,
                          "kind": "prefix_only" if index is None else "failing"}
                         for trace_id, index in tally.failures],
        }),
    }
    return values, files, display_net


def _read_log(path: Path, config: PipelineConfig) -> eventlog.EventLog:
    """Parse one input log and apply its caps, as stage parse."""
    with _stage("parse"):
        return eventlog.parse_log(path, config.schema(),
                                  config.max_events, config.max_traces)


def _write_run(out_dir: Path, files: dict[str, str]) -> None:
    """Write file name -> text into ``out_dir``; if any write fails, remove
    every file of the run, and ``out_dir`` if this call created it, so that
    no partial run is left behind."""
    created = not out_dir.exists()
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        for file_name, text in files.items():
            path = out_dir / file_name
            written.append(path)
            path.write_text(text)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        if created:
            out_dir.rmdir()
        raise


def _run_single(name: str, log: eventlog.EventLog, config: PipelineConfig,
                out_dir: Path) -> dict[str, float]:
    """Discover, enrich and measure one preprocessed log; write artifacts."""
    with _stage("discover"):
        tree = discovery.discover_tree(log, config.noise_threshold)
        net = discovery.tree_to_net(tree)
    traces, events = len(log), log.event_count()
    with _stage("replay"):  # each replay is let go once tallied, the log after all
        tally = stochastic.tally_replays(
            net, (stochastic.replay_trace(net, trace) for trace in log.traces))
        del log
    with _stage("enrich"):
        fspn = stochastic.enrich_from_tally(net, tally)
    with _stage("analyze"):
        values, files, display_net = measure(net, tally, config.entropy_log_base, {
            "log": name,
            "process_tree": discovery.format_tree(tree),
            "max_events": config.max_events,
            "max_traces": config.max_traces,
            "noise_threshold": config.noise_threshold,
            "entropy_log_base": config.entropy_log_base,
            "traces": traces,
            "events": events,
        })
    with _stage("write"):
        _write_run(out_dir, {
            "net.json": petri.net_to_json(net),
            "fspn.json": stochastic.fspn_to_json(fspn),
            "model.dot": export_dot(display_net),
            **files,
        })
    return values


def run_pipeline(config: PipelineConfig) -> dict[str, dict[str, float]]:
    """Run the full pipeline for every input log (and bot-score half), each
    run into ``config.out_dir`` / its name from ``config.run_names``; return
    run name -> its measure values, as :func:`measure` gives them."""
    reports = {}
    for path in config.inputs:
        logs = [_read_log(path, config)]
        if config.split_bot_scores:
            with _stage("split"):
                logs = list(eventlog.split_by_bot_score(logs[0], config.bot_high,
                                                        config.bot_low))
        for run_name in config.run_names(path):  # each log is handed over
            reports[run_name] = _run_single(run_name, logs.pop(0), config,
                                            config.out_dir / run_name)
    return reports


def compare(report_a: dict, report_b: dict) -> dict:
    """How run a relates to run b in each compared ``analysis.MEASURES`` row,
    and the KS test over their per-account mean waits, given the two runs'
    ``report.json`` documents."""
    waits_a, waits_b = (r.get("per_user_mean_waits") for r in (report_a, report_b))
    if not waits_a or not waits_b:
        raise ValueError("both runs need waiting-time samples")
    d, p = analysis.ks_two_sample(list(waits_a.values()), list(waits_b.values()))
    doc = {m.compare_key: m.relate(report_a[m.key], report_b[m.key])
           for m in analysis.MEASURES if m.relate}
    doc["ks"] = {"d": d, "p": p}
    return doc


def _add_schema_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--schema", default=None, metavar="MAPPING",
                     help="column mapping, e.g. "
                          "trace_id=tweet,activity=user,timestamp=at,"
                          "bot_score=score,format=epoch")
    sub.add_argument("--delimiter", default=None)


def _apply_schema(config: PipelineConfig, args: argparse.Namespace) -> None:
    if args.schema:
        for key, value in parse_schema_spec(args.schema).items():
            setattr(config, SCHEMA_KEYS[key], value)
    if args.delimiter is not None:
        config.delimiter = args.delimiter
    config.schema()  # a bad timestamp format fails here, before any input is read


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    if args.config:
        config = PipelineConfig.from_file(Path(args.config))
    else:
        config = PipelineConfig()
    overrides = {
        "inputs": [Path(p) for p in args.input] if args.input else None,
        "out_dir": Path(args.out) if args.out else None,
        "max_events": args.max_events,
        "max_traces": args.max_traces,
        "noise_threshold": args.noise_threshold,
        "split_bot_scores": args.split_bot_scores or None,
        "bot_high": args.bot_high,
        "bot_low": args.bot_low,
        "entropy_log_base": args.entropy_log_base,
    }
    for key, value in overrides.items():
        if value is not None:  # flags win over the config file
            setattr(config, key, value)
    config.check()
    _apply_schema(config, args)
    if not config.inputs:
        raise ValueError("at least one --input is required")
    return config


def _cmd_discover(args: argparse.Namespace) -> int:
    with _stage("config"):
        config = _config_from_args(args)
    reports = run_pipeline(config)
    with _stage("write"):
        for name, values in reports.items():
            print(f"{name}: {_csv_row(values)}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    with _stage("config"):
        config = PipelineConfig(max_events=args.max_events, max_traces=args.max_traces,
                                entropy_log_base=args.entropy_log_base)
        _apply_schema(config, args)
    with _stage("load"):
        net = petri.net_from_json(Path(args.net).read_text())
    log = _read_log(Path(args.input), config)
    with _stage("replay"):
        tally = stochastic.tally_replays(
            net, (stochastic.replay_trace(net, trace) for trace in log.traces))
        del log
    with _stage("analyze"):
        values, files, _ = measure(net, tally, config.entropy_log_base, {
            "log": Path(args.input).stem, "recomputed_from": args.net})
    with _stage("write"):
        _write_run(Path(args.out), files)
        print(_csv_row(values))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    with _stage("load"):
        fspn = stochastic.fspn_from_json(Path(args.fspn).read_text())
    with _stage("simulate"):
        log = stochastic.simulate(fspn, args.n_traces, seed=args.seed,
                                  max_firings=args.max_firings)
    with _stage("write"):
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        eventlog.write_log(log, out, eventlog.LogSchema(timestamp_format="epoch"))
        print(f"wrote {len(log)} traces ({log.event_count()} events) to {args.out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    with _stage("load"):
        reports = [json.loads(Path(p).read_text()) for p in (args.report_a, args.report_b)]
        for report in reports:  # a report lacking a compared measure fails here
            for m in analysis.MEASURES:
                if m.relate and m.key not in report:
                    raise KeyError(m.key)
    with _stage("compare"):
        doc = compare(*reports)
    with _stage("write"):
        text = petri.json_text(doc)
        if args.out:
            Path(args.out).write_text(text)
        print(text, end="")
    return 0


def _cmd_export_dot(args: argparse.Namespace) -> int:
    with _stage("load"):
        if args.fspn:
            fspn = stochastic.fspn_from_json(Path(args.fspn).read_text())
            text = export_dot(fspn.net, dict(fspn.arc_probabilities))
        else:
            net = petri.net_from_json(Path(args.net).read_text())
            text = export_dot(discovery.reduce_net(net) if args.reduce else net)
    with _stage("write"):
        if args.out:
            Path(args.out).write_text(text)
        else:
            print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repostminer",
        description="Discover and analyze stochastic Petri nets from repost logs.")
    subs = parser.add_subparsers(dest="command", required=True)

    disc = subs.add_parser("discover", help="run the full pipeline per input log")
    disc.add_argument("--input", action="append", help="input log (repeatable)")
    disc.add_argument("--out", help="output directory")
    disc.add_argument("--config", help="JSON config file; flags override it")
    _add_schema_options(disc)
    disc.add_argument("--max-events", type=int, default=None,
                      help="keep each trace's earliest N events (default 10)")
    disc.add_argument("--max-traces", type=int, default=None,
                      help="keep the N earliest-starting traces")
    disc.add_argument("--noise-threshold", type=float, default=None,
                      help="relative DFG noise cutoff (default 0.2)")
    disc.add_argument("--split-bot-scores", action="store_true", default=False)
    disc.add_argument("--bot-high", type=float, default=None,
                      help="route events with score > high (default 0.9)")
    disc.add_argument("--bot-low", type=float, default=None,
                      help="route events with score < low (default 0.1)")
    disc.add_argument("--entropy-log-base", type=float, default=None)
    disc.set_defaults(func=_cmd_discover)

    ana = subs.add_parser("analyze", help="recompute the report from artifacts")
    ana.add_argument("--net", required=True)
    ana.add_argument("--input", required=True)
    ana.add_argument("--out", required=True)
    _add_schema_options(ana)
    ana.add_argument("--max-events", type=int, default=10)
    ana.add_argument("--max-traces", type=int, default=None)
    ana.add_argument("--entropy-log-base", type=float, default=None)
    ana.set_defaults(func=_cmd_analyze)

    sim = subs.add_parser("simulate", help="generate a log from an FSPN")
    sim.add_argument("--fspn", required=True)
    sim.add_argument("--n-traces", type=int, required=True)
    sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sim.add_argument("--max-firings", type=int, default=1000)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    cmp_ = subs.add_parser("compare", help="compare two completed runs")
    cmp_.add_argument("--report-a", required=True)
    cmp_.add_argument("--report-b", required=True)
    cmp_.add_argument("--out")
    cmp_.set_defaults(func=_cmd_compare)

    dot = subs.add_parser("export-dot", help="render a net or FSPN as DOT")
    group = dot.add_mutually_exclusive_group(required=True)
    group.add_argument("--net")
    group.add_argument("--fspn")
    dot.add_argument("--reduce", action="store_true",
                     help="fuse redundant silent plumbing before rendering")
    dot.add_argument("--out")
    dot.set_defaults(func=_cmd_export_dot)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command with the cyclic garbage collector paused, restoring
    the caller's collector state after: the events, firings and markings a
    command builds are acyclic and live until it ends, so collector passes
    would only traverse them."""
    args = build_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.collect(1)  # the parser is young cyclic garbage now; free it before the pause
    gc.disable()
    try:
        return args.func(args)
    except PipelineError as exc:
        print(f"{args.command}: error in stage {exc.stage}: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
