"""Batch command line: discover, analyze, simulate, compare, export-dot.

``discover`` runs the whole pipeline per input log (parse, preprocess,
optional bot-score split, discovery, enrichment, metrics) and writes
``report.json``, ``report.csv``, ``net.json``, ``fspn.json``, ``model.dot``
and ``conformance.json`` into one directory per run.  The other subcommands
re-run individual stages from those artifacts.  Any failure in a stage ends
the command with exit status 1 and ``<command>: error in stage <stage>: ...``.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterator

from . import analysis, discovery, eventlog, petri, stochastic

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


@dataclass
class PipelineConfig:
    inputs: list[Path] = field(default_factory=list)
    out_dir: Path = Path("out")
    trace_column: str = "trace_id"
    activity_column: str = "activity"
    timestamp_column: str = "timestamp"
    bot_score_column: str | None = None
    delimiter: str = ","
    timestamp_format: str = "iso8601"
    max_events: int = 10
    max_traces: int | None = None
    noise_threshold: float = 0.2
    split_bot_scores: bool = False
    bot_high: float = 0.9
    bot_low: float = 0.1
    entropy_log_base: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.noise_threshold <= 1.0:
            raise ValueError("noise threshold must lie in [0, 1]")
        if self.max_events < 1:
            raise ValueError("max_events must be >= 1")

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
        raw = json.loads(path.read_text())
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "inputs" in raw:
            raw["inputs"] = [Path(p) for p in raw["inputs"]]
        if "out_dir" in raw:
            raw["out_dir"] = Path(raw["out_dir"])
        return cls(**raw)


def _json_text(doc: object) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


SCHEMA_KEYS = ("trace_id", "activity", "timestamp", "bot_score", "format")


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


def export_dot(net: petri.PetriNet,
               arc_probabilities: dict[tuple[str, str], float] | None = None) -> str:
    """DOT text: places as circles, labeled transitions as boxes, silent
    transitions as filled black boxes; probabilities label place arcs."""
    lines = ["digraph net {", "  rankdir=LR;"]
    for p in net.places:
        tokens = net.initial_marking.get(p, 0)
        label = str(tokens) if tokens else ""
        lines.append(f'  "{p}" [shape=circle, label="{label}"];')
    for t in net.transitions:
        label = net.label(t)
        if label is None:
            lines.append(f'  "{t}" [shape=box, style=filled, '
                         f'fillcolor=black, label=""];')
        else:
            lines.append(f'  "{t}" [shape=box, label="{label}"];')
    for src, dst in net.arcs:
        suffix = ""
        if arc_probabilities is not None and (src, dst) in arc_probabilities:
            suffix = f' [label="{arc_probabilities[(src, dst)]:.6g}"]'
        lines.append(f'  "{src}" -> "{dst}"{suffix};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def measure(net: petri.PetriNet, replays: list[stochastic.ReplayResult],
            entropy_log_base: float | None, provenance: dict[str, object],
            ) -> tuple[analysis.MetricsReport, dict[str, str], petri.PetriNet]:
    """The report of a replayed net, file name -> text of ``report.json``,
    ``report.csv`` and ``conformance.json``, and the reduced display net that
    the report's node count, density and diameter are from."""
    display_net = discovery.reduce_net(net)
    stats = stochastic.waiting_time_stats(replays)
    report = analysis.MetricsReport(
        node_count=display_net.node_count(),
        density=analysis.density(display_net),
        diameter=analysis.diameter(display_net),
        mean_of_mean_wait_seconds=stats.mean_of_means,
        ks_entropy=analysis.replay_entropy(net, replays, entropy_log_base),
        provenance=provenance,
    )
    doc = report.as_dict()
    doc["per_user_mean_waits"] = {a: s.mean for a, s in stats.per_activity.items()}
    failures = [{"trace_id": r.trace_id, "failed_index": r.failed_index}
                for r in replays if not r.conforming]
    files = {
        "report.json": _json_text(doc),
        "report.csv": analysis.MetricsReport.CSV_HEADER + "\n" + report.csv_row() + "\n",
        "conformance.json": _json_text({
            "total": len(replays),
            "conforming": len(replays) - len(failures),
            "nonconforming": len(failures),
            "failures": failures,
        }),
    }
    return report, files, display_net


def _read_log(path: Path, config: PipelineConfig) -> eventlog.EventLog:
    """Parse and preprocess one input log, as stages parse and preprocess."""
    with _stage("parse"):
        log = eventlog.parse_log(path, config.schema())
    with _stage("preprocess"):
        return eventlog.preprocess(log, config.max_events, config.max_traces)


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
                out_dir: Path) -> analysis.MetricsReport:
    """Discover, enrich and measure one preprocessed log; write artifacts."""
    with _stage("discover"):
        tree = discovery.discover_tree(log, config.noise_threshold)
        net = discovery.tree_to_net(tree)
    with _stage("replay"):
        replays = stochastic.replay_log(net, log)
    with _stage("enrich"):
        fspn = stochastic.enrich_from_replays(net, replays)
    with _stage("analyze"):
        report, files, display_net = measure(net, replays, config.entropy_log_base, {
            "log": name,
            "process_tree": discovery.format_tree(tree),
            "max_events": config.max_events,
            "max_traces": config.max_traces,
            "noise_threshold": config.noise_threshold,
            "entropy_log_base": config.entropy_log_base,
            "traces": len(log),
            "events": log.event_count(),
        })
    with _stage("write"):
        _write_run(out_dir, {
            "net.json": petri.net_to_json(net),
            "fspn.json": stochastic.fspn_to_json(fspn),
            "model.dot": export_dot(display_net),
            **files,
        })
    return report


def run_pipeline(config: PipelineConfig) -> list[analysis.MetricsReport]:
    """Run the full pipeline for every input log (and bot-score half)."""
    reports = []
    for path in config.inputs:
        runs = {path.stem: _read_log(path, config)}
        if config.split_bot_scores:
            with _stage("split"):
                high, low = eventlog.split_by_bot_score(
                    runs[path.stem], config.bot_high, config.bot_low)
            runs = {f"{path.stem}-bot_high": high, f"{path.stem}-bot_low": low}
        for run_name, log in runs.items():
            reports.append(_run_single(run_name, log, config,
                                       config.out_dir / run_name))
    return reports


def compare(report_a: dict, waits_a: dict[str, float],
            report_b: dict, waits_b: dict[str, float]) -> dict:
    """Density ratio, diameter and entropy differences, and the KS test over
    per-account mean waits of two completed runs."""
    if not waits_a or not waits_b:
        raise ValueError("both runs need waiting-time samples")
    d, p = analysis.ks_two_sample(list(waits_a.values()), list(waits_b.values()))
    ma, mb = report_a["metrics"], report_b["metrics"]
    return {
        "density_ratio": ma["density"] / mb["density"],
        "diameter_difference": ma["diameter"] - mb["diameter"],
        "entropy_difference": ma["ks_entropy"] - mb["ks_entropy"],
        "ks": {"d": d, "p": p},
    }


def _load_report(path: Path) -> tuple[dict, dict[str, float]]:
    doc = json.loads(path.read_text())
    report = {"metrics": {
        "density": doc["density"],
        "diameter": doc["diameter"],
        "ks_entropy": doc["ks_entropy"],
    }}
    return report, doc.get("per_user_mean_waits", {})


def _add_schema_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--schema", default=None, metavar="MAPPING",
                     help="column mapping, e.g. "
                          "trace_id=tweet,activity=user,timestamp=at,"
                          "bot_score=score,format=epoch")
    sub.add_argument("--delimiter", default=None)


def _apply_schema(config: PipelineConfig, args: argparse.Namespace) -> None:
    if args.schema:
        mapping = parse_schema_spec(args.schema)
        fields_by_key = {"trace_id": "trace_column", "activity": "activity_column",
                         "timestamp": "timestamp_column",
                         "bot_score": "bot_score_column",
                         "format": "timestamp_format"}
        for key, value in mapping.items():
            setattr(config, fields_by_key[key], value)
    if args.delimiter is not None:
        config.delimiter = args.delimiter


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
    _apply_schema(config, args)
    if not config.inputs:
        raise ValueError("at least one --input is required")
    return config


def _cmd_discover(args: argparse.Namespace) -> int:
    with _stage("config"):
        config = _config_from_args(args)
    reports = run_pipeline(config)
    with _stage("write"):
        for report in reports:
            print(f"{report.provenance['log']}: {report.csv_row()}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    with _stage("config"):
        config = PipelineConfig(max_events=args.max_events, max_traces=args.max_traces)
        _apply_schema(config, args)
    with _stage("load"):
        net = petri.net_from_json(Path(args.net).read_text())
    log = _read_log(Path(args.input), config)
    with _stage("replay"):
        replays = stochastic.replay_log(net, log)
    with _stage("analyze"):
        report, files, _ = measure(net, replays, args.entropy_log_base, {
            "log": Path(args.input).stem, "recomputed_from": args.net})
    with _stage("write"):
        _write_run(Path(args.out), files)
        print(report.csv_row())
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
        report_a, waits_a = _load_report(Path(args.report_a))
        report_b, waits_b = _load_report(Path(args.report_b))
    with _stage("compare"):
        doc = compare(report_a, waits_a, report_b, waits_b)
    with _stage("write"):
        if args.out:
            Path(args.out).write_text(_json_text(doc))
        print(json.dumps(doc, indent=2, sort_keys=True))
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PipelineError as exc:
        print(f"{args.command}: error in stage {exc.stage}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
