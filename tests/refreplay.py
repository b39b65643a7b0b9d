"""Reference token replay: one silent-path memo per ``replay_log`` call,
keyed by a frozenset of the marking that each event rebuilds from the
token heaps.  The replay that memoizes in the net's shared search state
must give the same results, whatever replays ran on the net before."""

import heapq

from repostminer.stochastic import Firing, ReplayResult, _silent_path, _with_search


def _fire_timed(kernel, tokens, t, fired_at=None):
    """Consume the oldest token per input place; return (enabled_at, fired_at).

    Silent transitions fire immediately at their enablement time and
    propagate the consumed arrival times; labeled transitions stamp their
    outputs with the observed firing time.
    """
    enabled_at = 0.0
    for p in kernel.pre[t]:
        if tokens[p][0] > enabled_at:
            enabled_at = tokens[p][0]
    for p in kernel.pure_in[t]:
        heapq.heappop(tokens[p])
    out_time = enabled_at if fired_at is None else fired_at
    for p in kernel.pure_out[t]:
        heapq.heappush(tokens.setdefault(p, []), out_time)
    return enabled_at, out_time


def reference_replay_trace(net, trace, memo):
    kernel = _with_search(net)
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
        *path, target = found
        fire_path(path)
        enabled_at, fired_at = _fire_timed(kernel, tokens, target, float(event.timestamp))
        firings.append(Firing(target, event.activity, enabled_at, fired_at))

    completion = search(None)
    if completion is None:  # every event fired, but the trace fits only as a prefix
        return ReplayResult(trace.trace_id, tuple(firings), False, None)
    fire_path(completion)
    return ReplayResult(trace.trace_id, tuple(firings), True, None)


def reference_replay_log(net, log):
    memo = {}
    return [reference_replay_trace(net, trace, memo) for trace in log.traces]
