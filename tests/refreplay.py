"""Reference token replay: one silent-path memo per ``replay_log`` call,
keyed by a frozenset of the marking that each event rebuilds from the
token heaps.  The replay that memoizes on the net's kernel must give the
same results, whatever replays ran on the net before."""

from repostminer.stochastic import Firing, ReplayResult, _fire_timed, _silent_path


def reference_replay_trace(net, trace, memo):
    kernel = net.kernel
    start_time = float(trace.events[0].timestamp) if trace.events else 0.0
    tokens = {p: [start_time] * n for p, n in net.initial_marking.items() if n > 0}
    firings = []

    def search(goal):
        counts = {p: len(v) for p, v in tokens.items() if v}
        key = (frozenset(counts.items()), goal)
        if key not in memo:
            memo[key] = _silent_path(kernel, counts, goal)
        return memo[key]

    def fire_path(path):
        for silent in path:
            en, fired = _fire_timed(kernel, tokens, silent)
            firings.append(Firing(silent, None, en, fired))

    for index, event in enumerate(trace.events):
        found = search(event.activity)
        if found is None:
            return ReplayResult(trace.trace_id, tuple(firings), False, index)
        path, target = found
        fire_path(path)
        enabled_at, fired_at = _fire_timed(kernel, tokens, target, float(event.timestamp))
        firings.append(Firing(target, event.activity, enabled_at, fired_at))

    completion = search(None)
    if completion is not None:
        fire_path(completion[0])
    return ReplayResult(trace.trace_id, tuple(firings), True, None)


def reference_replay_log(net, log):
    memo = {}
    return [reference_replay_trace(net, trace, memo) for trace in log.traces]
