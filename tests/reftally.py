"""Reference walks over replay firings: enrichment, waiting statistics and
the replay entropy, each walking every firing of the replays on its own.
``stochastic.tally_replays`` walks them once for all three; what
``enrich_from_tally``, ``waiting_time_stats`` and ``replay_entropy`` compute
from its tally must equal these, bit for bit."""

import math
from collections import Counter

from repostminer.analysis import ChainConstructionError, check_log_base
from repostminer.stochastic import (EmpiricalDelay, EnrichmentError, StatsError,
                                    StochasticPetriNet, WaitingStats, mean)


def reference_enrich(net, replays):
    conforming = [r for r in replays if r.conforming]
    if not conforming:
        raise EnrichmentError("no conforming replay to enrich from")

    fired = Counter()
    waits = {}
    for result in conforming:
        for firing in result.firings:
            fired[firing.transition] += 1
            if firing.label is not None:
                waits.setdefault(firing.transition, []).append(firing.wait)

    probabilities = {}
    for place in net.places:
        outs = net.postset(place)
        if not outs:
            continue
        total = sum(fired[t] for t in outs)
        for t in outs:
            probabilities[(place, t)] = fired[t] / total if total else 1.0 / len(outs)

    delays = {t: EmpiricalDelay(tuple(v)) for t, v in waits.items()}
    return StochasticPetriNet(net, probabilities, delays)


def reference_waiting_stats(replays):
    waits = {}
    for result in replays:
        if not result.conforming:
            continue
        for firing in result.firings:
            if firing.label is not None:
                waits.setdefault(firing.label, []).append(firing.wait)
    if not waits:
        raise StatsError("no conforming replay with observable firings")
    per_activity = {a: mean(v) for a, v in sorted(waits.items())}
    return WaitingStats(per_activity, mean(list(per_activity.values())))


def reference_entropy(net, replays, log_base=None):
    check_log_base(log_base)
    conforming = [r for r in replays if r.conforming]
    if not conforming:
        raise ChainConstructionError("no conforming replays to estimate the entropy from")

    succ, successor, start = net.kernel.succ, net.kernel.successor, net.kernel.start
    moves = Counter()
    for result in conforming:
        state = start
        for firing in result.firings:
            nxt = succ.get((state, firing.transition))
            if nxt is None and (nxt := successor(state, firing.transition)) is None:
                raise ValueError(f"replay of {result.trace_id} fires "
                                 f"{firing.transition} where it is not enabled")
            moves[state, nxt] += 1
            state = nxt
        moves[state, start] += 1  # the trace ends: close back to the start

    out_totals = Counter()
    for (src, _), n in moves.items():
        out_totals[src] += n
    weighted = 0.0
    for (src, _), n in moves.items():
        weighted -= n * math.log(n / out_totals[src])
    h = weighted / sum(out_totals.values())  # every visit departs once
    if log_base is not None:
        h /= math.log(log_base)
    return h
