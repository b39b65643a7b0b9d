"""The traced form of a workload's job.

The job runs as the real CLI, ``repostminer.cli.main(argv)`` for each
command, while the public library functions that ``cli`` calls are replaced
on their modules by wrappers that time each call from outside as one span.
``cli`` looks those functions up on the modules (``analysis.ks_entropy``,
``stochastic.replay_log``...), and the modules look up their own functions
at call time, so nested calls get child spans too: ``replay_log`` gets one
``replay_trace`` span per trace, and ``ks_entropy`` a ``stationary_distribution``
span when it computes the stationary law itself.  The program itself is not
instrumented; the wrappers are removed when the job ends.  Every file the
CLI writes with ``Path.write_text`` is a ``cli.write`` span.

Counts (states, firings, nodes...) are taken after the job has ended, from
the arguments and results the wrapped calls kept, so that counting costs no
traced time.
"""

from __future__ import annotations

import functools
from pathlib import Path
from time import perf_counter

from repostminer import analysis, cli, discovery, eventlog, petri, stochastic

ROOT = "cli.job"

# The functions timed as spans, by module.  A function the program no longer
# has is skipped, so that the benchmark still runs.
WRAPPED = {
    eventlog: ("parse_log", "preprocess", "split_by_bot_score", "write_log"),
    discovery: ("discover_tree", "tree_to_net", "reduce_net"),
    stochastic: ("replay_log", "replay_trace", "enrich_from_replays",
                 "waiting_time_stats", "fspn_from_json", "simulate"),
    petri: ("net_from_json", "reachability_graph"),
    analysis: ("density", "diameter", "build_markov_chain",
               "stationary_distribution", "ks_entropy"),
}


class Tracer:
    """Spans kept in memory: ``[name, start, end, parent index, workload]``,
    with times in seconds from ``perf_counter``.  The root span is index 0."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.kept: list[tuple[str, tuple, object]] = []  # counted at the end

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter(), None, parent, self.workload])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            self.kept.append((name, args, result))
            return result
        return spanned


def run(workload: str, commands: list[list[str]]) -> Tracer:
    """Run the job's CLI commands under one root span, with the library
    calls wrapped; raises if a command exits nonzero."""
    tr = Tracer(workload)
    originals = [(module, attr, getattr(module, attr))
                 for module, attrs in WRAPPED.items() for attr in attrs
                 if hasattr(module, attr)]
    originals.append((Path, "write_text", Path.write_text))
    for module, attr, fn in originals:
        layer = "cli" if module is Path else module.__name__.rsplit(".", 1)[-1]
        name = "cli.write" if module is Path else f"{layer}.{attr}"
        setattr(module, attr, tr.wrap(name, fn))
    try:
        root = tr.open(ROOT)
        for argv in commands:
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"repostminer {argv[0]} exited with {code}")
        tr.close(root)
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)
    return tr


def _tree_nodes(tree: discovery.ProcessTree) -> tuple[int, int]:
    """(nodes, flower nodes); a flower is a loop of tau over single accounts."""
    flower = int(tree.kind == discovery.LOOP
                 and tree.children[0].kind == discovery.TAU
                 and all(c.kind == discovery.ACTIVITY for c in tree.children[1:]))
    nodes = 1
    for child in tree.children:
        n, f = _tree_nodes(child)
        nodes, flower = nodes + n, flower + f
    return nodes, flower


def counts(tr: Tracer) -> dict[str, float]:
    """Work counts of the layers, from what the traced calls kept."""
    c = dict.fromkeys((
        "eventlog.rows_in", "eventlog.rows_rejected", "eventlog.traces_kept",
        "eventlog.events_kept", "discovery.tree_nodes", "discovery.flower_nodes",
        "discovery.net_transitions", "discovery.silent_transitions",
        "stochastic.replays", "stochastic.fitting", "stochastic.firings",
        "stochastic.silent_firings", "stochastic.simulated_events",
        "petri.rg_states", "petri.rg_edges", "analysis.chain_states",
        "analysis.matrix_mb", "cli.artifact_bytes"), 0)
    for name, args, result in tr.kept:
        if name == "eventlog.parse_log":
            with open(args[0], encoding="utf-8") as f:
                rows = sum(1 for line in f if line.strip()) - 1
            c["eventlog.rows_in"] += rows
            c["eventlog.rows_rejected"] += rows - result.event_count()
        elif name == "eventlog.preprocess":
            c["eventlog.traces_kept"] += len(result)
            c["eventlog.events_kept"] += result.event_count()
        elif name == "discovery.discover_tree":
            nodes, flowers = _tree_nodes(result)
            c["discovery.tree_nodes"] += nodes
            c["discovery.flower_nodes"] += flowers
        elif name == "discovery.tree_to_net":
            c["discovery.net_transitions"] += len(result.transitions)
            c["discovery.silent_transitions"] += len(result.silent_transitions())
        elif name == "stochastic.replay_trace":
            c["stochastic.replays"] += 1
            c["stochastic.fitting"] += result.conforming
            c["stochastic.firings"] += len(result.firings)
            c["stochastic.silent_firings"] += sum(f.label is None for f in result.firings)
        elif name == "stochastic.simulate":
            c["stochastic.simulated_events"] += result.event_count()
        elif name == "petri.reachability_graph":
            c["petri.rg_states"] += len(result.states)
            c["petri.rg_edges"] += len(result.edges)
        elif name == "analysis.build_markov_chain":
            c["analysis.chain_states"] += len(result.states)
            c["analysis.matrix_mb"] += result.matrix.nbytes / 2 ** 20
        elif name == "cli.write":
            c["cli.artifact_bytes"] += len(args[1].encode())
        elif name == "eventlog.write_log":
            c["cli.artifact_bytes"] += Path(args[1]).stat().st_size
    return c
