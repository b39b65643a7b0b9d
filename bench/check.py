"""Output checks of one workload's job, run after the timed repetitions.

Usage: ``check.py SPEC``, where SPEC is the JSON spec of the job whose
outputs are to be checked (commands, run directories and expectations, with
the output placeholder already resolved).  Prints one JSON object: a list
of problems, empty when every check passed, and the facts checked.

The entropy oracle is independent of the program's chain code: it replays
each trace, walks the markings with ``petri.fire`` and counts visits and
departures per marking.  When every conforming replay ends in a dead
marking, the end-to-start closed chain is regenerative and its stationary
law is the normalised visit count (Kemeny & Snell), so the KS entropy is
``sum_s n_out(s) * H(row s) / sum_s visits(s)``.
"""

import json
import math
import sys
from collections import Counter
from pathlib import Path

from repostminer import cli, eventlog, petri, stochastic

ENTROPY_TOLERANCE = 1e-9
# Estimated probabilities may sit this many binomial standard errors from the
# source model's, sqrt(p (1 - p) / n) with n the tokens the place gave out.
# At 5 errors a false alarm has odds below 1e-6 per arc.
PROBABILITY_SIGMAS = 5.0


def _logs_of_runs(commands: list[list[str]]) -> dict[str, tuple[Path, eventlog.EventLog]]:
    """Run directory -> (net file, preprocessed log) as each command built
    them, for the ``discover`` and ``analyze`` commands of a job."""
    parser = cli.build_parser()
    runs = {}
    for argv in commands:
        args = parser.parse_args(argv)
        if args.command == "discover":
            config = cli._config_from_args(args)
            for path in config.inputs:
                log = eventlog.preprocess(eventlog.parse_log(path, config.schema()),
                                          config.max_events, config.max_traces)
                parts = {path.stem: log}
                if config.split_bot_scores:
                    high, low = eventlog.split_by_bot_score(
                        log, config.bot_high, config.bot_low)
                    parts = {f"{path.stem}-bot_high": high, f"{path.stem}-bot_low": low}
                for name, part in parts.items():
                    run = config.out_dir / name
                    runs[str(run)] = (run / "net.json", part)
        elif args.command == "analyze":
            config = cli.PipelineConfig()
            cli._apply_schema(config, args)
            log = eventlog.preprocess(eventlog.parse_log(args.input, config.schema()),
                                      args.max_events, args.max_traces)
            runs[args.out] = (Path(args.net), log)
    return runs


def entropy_oracle(net: petri.PetriNet, log: eventlog.EventLog) -> float | None:
    """KS entropy of the replay chain from visit counts, or None when some
    conforming replay stops short of a dead marking (the formula then does
    not hold)."""
    visits: Counter = Counter()
    moves: Counter = Counter()
    for trace in log.traces:
        replay = stochastic.replay_trace(net, trace)
        if not replay.conforming:
            continue
        marking = net.initial()
        visits[marking] += 1
        for firing in replay.firings:
            after = petri.fire(net, marking, firing.transition)
            moves[(marking, after)] += 1
            visits[after] += 1
            marking = after
        if petri.enabled(net, marking):
            return None
    n_out: Counter = Counter()
    for (src, _), n in moves.items():
        n_out[src] += n
    weighted = 0.0
    for (src, _), n in moves.items():
        p = n / n_out[src]
        weighted -= n * math.log(p)  # n_out(s) * p * log p, summed over the row
    return weighted / sum(visits.values())


def _check_entropy(run: str, net_path: Path, log, problems: list[str],
                   facts: dict) -> None:
    report = json.loads((Path(run) / "report.json").read_text())
    oracle = entropy_oracle(petri.net_from_json(net_path.read_text()), log)
    name = Path(run).name
    if oracle is None:
        facts[f"{name}.oracle"] = "not applicable: a replay ends in a live marking"
        return
    gap = abs(report["ks_entropy"] - oracle)
    facts[f"{name}.entropy_gap"] = gap
    if gap > ENTROPY_TOLERANCE:
        problems.append(f"{name}: ks_entropy {report['ks_entropy']!r} differs from "
                        f"the visit-count oracle {oracle!r} by {gap:.3g}")


def _check_source_recovery(expect: dict, problems: list[str], facts: dict) -> None:
    """Every simulated trace replays on the source net, and enrichment on
    the source net recovers its arc probabilities."""
    source = stochastic.fspn_from_json(Path(expect["source_fspn"]).read_text())
    log = eventlog.parse_log(expect["simulated"],
                             eventlog.LogSchema(timestamp_format="epoch"))
    replays = stochastic.replay_log(source.net, log)
    misfits = [r.trace_id for r in replays if not r.conforming]
    facts["simulated_traces"] = len(replays)
    if misfits:
        problems.append(f"{len(misfits)} simulated traces do not replay on the "
                        f"source net, e.g. {misfits[:3]}")
        return
    estimated = stochastic.enrich_from_replays(source.net, replays).arc_probabilities
    given: Counter = Counter()
    for r in replays:
        for f in r.firings:
            for place in source.net.preset(f.transition):
                given[place] += 1
    worst = 0.0
    for (place, t), p in source.arc_probabilities.items():
        n = given[place]
        if n == 0:
            continue
        gap = abs(estimated[(place, t)] - p)
        allowed = PROBABILITY_SIGMAS * math.sqrt(p * (1 - p) / n) + 1e-12
        worst = max(worst, gap / allowed)
        if gap > allowed:
            problems.append(f"arc ({place}, {t}): estimated {estimated[(place, t)]:.4f}"
                            f" vs source {p:.4f} over {n} tokens")
    facts["worst_probability_gap_share_of_tolerance"] = worst


def check(spec: dict) -> tuple[list[str], dict]:
    problems: list[str] = []
    facts: dict[str, object] = {}
    expect = spec["expect"]
    runs = _logs_of_runs(spec["commands"])
    for run in spec["runs"]:
        report = json.loads((Path(run) / "report.json").read_text())
        name = Path(run).name
        conformance = Path(run) / "conformance.json"
        if conformance.exists():
            doc = json.loads(conformance.read_text())
            facts[f"{name}.fitting"] = f"{doc['conforming']}/{doc['total']}"
            if expect.get("all_fit") and doc["nonconforming"]:
                problems.append(f"{name}: {doc['nonconforming']} of {doc['total']} "
                                "traces do not fit")
        if "tree" in expect and report["provenance"]["process_tree"] != expect["tree"]:
            problems.append(f"{name}: tree {report['provenance']['process_tree'][:200]}"
                            f" is not the expected {expect['tree'][:200]}")
        net_path, log = runs[run]
        _check_entropy(run, net_path, log, problems, facts)
        if "rg_states" in expect:
            net = petri.net_from_json(net_path.read_text())
            states = len(petri.reachability_graph(net).states)
            facts[f"{name}.rg_states"] = states
            if states != expect["rg_states"]:
                problems.append(f"{name}: {states} reachable markings, expected "
                                f"{expect['rg_states']}")
    if "source_fspn" in expect:
        _check_source_recovery(expect, problems, facts)
    return problems, facts


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text())
    problems, facts = check(spec)
    print(json.dumps({"problems": problems, "facts": facts}))


if __name__ == "__main__":
    main()
