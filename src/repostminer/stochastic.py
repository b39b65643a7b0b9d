"""Stochastic enrichment and simulation of discovered nets.

Token replay walks a trace over the net, routing through silent transitions
where needed, and records for every firing when the transition became enabled
and when it fired.  Those waits feed per-account delay distributions, arc
probabilities estimated from token consumption, and the replay-based Markov
chain used for entropy.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter, deque
from dataclasses import dataclass
from statistics import mean, median
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .eventlog import Event, EventLog, Trace
from .petri import (Kernel, PetriNet, add_tokens, is_free_choice, net_from_json,
                    net_to_json, remove_tokens)

PROBABILITY_TOLERANCE = 1e-9


class EnrichmentError(RuntimeError):
    """No conforming trace was available to estimate probabilities from."""


class StatsError(ValueError):
    """Waiting-time statistics requested over no data."""


@dataclass(frozen=True)
class EmpiricalDelay:
    """Observed waiting times of one transition, in seconds."""

    samples: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("empirical delay needs at least one sample")
        if any(s < 0 for s in self.samples):
            raise ValueError("delays must be nonnegative")

    def mean(self) -> float:
        return float(mean(self.samples))


@dataclass(frozen=True)
class Firing:
    transition: str
    label: str | None
    enabled_at: float
    fired_at: float

    @property
    def wait(self) -> float:
        return max(0.0, self.fired_at - self.enabled_at)


@dataclass(frozen=True)
class ReplayResult:
    trace_id: str
    firings: tuple[Firing, ...]
    conforming: bool
    failed_index: int | None = None


@dataclass(frozen=True)
class StochasticPetriNet:
    """Free-choice net plus per-place arc probabilities and empirical delays.

    Probabilities cover every outgoing place arc and sum to one per place;
    silent transitions never carry a delay distribution.
    """

    net: PetriNet
    arc_probabilities: Mapping[tuple[str, str], float]
    delay_distributions: Mapping[str, EmpiricalDelay]

    def __post_init__(self) -> None:
        if not is_free_choice(self.net):
            raise ValueError("underlying net must be free-choice")
        arcs, transitions = set(self.net.arcs), set(self.net.transitions)
        for (p, t), prob in self.arc_probabilities.items():
            if (p, t) not in arcs:
                raise ValueError(f"probability on missing arc ({p}, {t})")
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"probability {prob} outside [0, 1]")
        for place in self.net.places:
            outs = self.net.postset(place)
            if not outs:
                continue
            total = sum(self.arc_probabilities.get((place, t), 0.0) for t in outs)
            if abs(total - 1.0) > PROBABILITY_TOLERANCE:
                raise ValueError(f"probabilities out of place {place} sum to {total}")
        for t in self.delay_distributions:
            if t not in transitions:
                raise ValueError(f"delay for unknown transition {t}")
            if self.net.is_silent(t):
                raise ValueError(f"silent transition {t} cannot carry delays")


# A silent-path search result: (tau path, goal transition) for an event, the
# tau path alone for completion, or None when no silent path exists.
SilentPath = tuple[tuple[str, ...], str] | tuple[str, ...] | None
Memo = dict[tuple[frozenset, str | None], SilentPath]


def _silent_path(kernel: Kernel, counts: dict[str, int],
                 goal_label: str | None) -> SilentPath:
    """Shortest deterministic silent-firing path.

    With a ``goal_label``, returns ``(tau_path, transition)`` where the final
    transition carries that label and is enabled after the path.  With
    ``goal_label=None``, returns the path to the nearest dead marking (no
    transition enabled at all).  Search depth is bounded by the number of
    silent transitions in the net.  Ties break first on breadth-first order,
    so the fewest silent firings win, then on net transition order: silent
    successors are expanded, and goal transitions tried, in the order the net
    lists them.  The result depends only on the net, the marking and the
    goal, which is what lets replay memoize it.
    """
    goals = None if goal_label is None else kernel.by_label.get(goal_label, ())
    max_depth = len(kernel.silent)
    queue: deque[tuple[dict[str, int], tuple[str, ...]]] = deque([(counts, ())])
    seen = {frozenset(counts.items())}
    while queue:
        current, path = queue.popleft()
        if goals is None:
            if not kernel.enabled(current):
                return path
        elif hits := kernel.enabled(current, goals):
            return path, hits[0]
        if len(path) >= max_depth:
            continue
        for t in kernel.enabled(current, kernel.silent):
            succ = kernel.fire(current, t)
            k = frozenset(succ.items())
            if k not in seen:
                seen.add(k)
                queue.append((succ, path + (t,)))
    return None


def _fire_timed(kernel: Kernel, tokens: dict[str, list[float]], t: str,
                fired_at: float | None = None) -> tuple[float, float]:
    """Consume the oldest token per input place; return (enabled_at, fired_at).

    Silent transitions fire immediately at their enablement time and
    propagate the consumed arrival times; labeled transitions stamp their
    outputs with the observed firing time.
    """
    enabled_at = max([0.0] + [tokens[p][0] for p in kernel.pre[t]])
    for p in kernel.pure_in[t]:
        heapq.heappop(tokens[p])
    out_time = enabled_at if fired_at is None else fired_at
    for p in kernel.pure_out[t]:
        heapq.heappush(tokens.setdefault(p, []), out_time)
    return enabled_at, out_time


def replay_trace(net: PetriNet, trace: Trace, *,
                 memo: Memo | None = None) -> ReplayResult:
    """Replay one trace, extracting enablement and firing times per event.

    For each observed event the shortest silent path that enables a matching
    transition is fired first (fewest silent firings, then net transition
    order; see ``_silent_path``); initial tokens carry the trace's first
    timestamp so the opening firing waits zero.  After the last event the
    replay silently completes to the nearest dead marking, which attributes
    skipped branches to their silent transitions.  If some event cannot be
    enabled the result is nonconforming at that index.

    ``memo`` caches silent-path searches by (marking, account), with ``None``
    for completion.  A search is a pure function of those and the net, so a
    memo shared by calls on the same net changes no result; without one the
    call starts cold.
    """
    kernel = net.kernel
    memo = {} if memo is None else memo
    start_time = float(trace.events[0].timestamp) if trace.events else 0.0
    tokens = {p: [start_time] * n for p, n in net.initial_marking.items() if n > 0}

    firings: list[Firing] = []

    def search(goal: str | None) -> SilentPath:
        counts = {p: len(v) for p, v in tokens.items() if v}
        key = (frozenset(counts.items()), goal)
        if key not in memo:
            memo[key] = _silent_path(kernel, counts, goal)
        return memo[key]

    def fire_path(path: Iterable[str]) -> None:
        for silent in path:
            en, fired = _fire_timed(kernel, tokens, silent)
            firings.append(Firing(silent, None, en, fired))

    for index, event in enumerate(trace.events):
        found = search(event.activity)
        if found is None:
            return ReplayResult(trace.trace_id, tuple(firings), False, index)
        path, target = found
        fire_path(path)
        enabled_at, fired_at = _fire_timed(kernel, tokens, target,
                                           float(event.timestamp))
        firings.append(Firing(target, event.activity, enabled_at, fired_at))

    completion = search(None)
    if completion is not None:
        fire_path(completion)
    return ReplayResult(trace.trace_id, tuple(firings), True, None)


def replay_log(net: PetriNet, log: EventLog) -> list[ReplayResult]:
    """Replay every trace, sharing one silent-path memo across the log; the
    memo is dropped when the call returns."""
    memo: Memo = {}
    return [replay_trace(net, trace, memo=memo) for trace in log.traces]


def enrich_from_replays(net: PetriNet,
                        replays: Sequence[ReplayResult]) -> StochasticPetriNet:
    """Estimate arc probabilities and delay distributions from replays.

    ``Pr(p, t)`` is the share of tokens consumed from ``p`` that went to
    ``t``; places never visited by any conforming replay fall back to a
    uniform split.  Nonconforming replays are ignored.
    """
    conforming = [r for r in replays if r.conforming]
    if not conforming:
        raise EnrichmentError("no conforming replay to enrich from")

    consumed: Counter[tuple[str, str]] = Counter()
    waits: dict[str, list[float]] = {}
    for result in conforming:
        for firing in result.firings:
            for place in net.preset(firing.transition):
                consumed[(place, firing.transition)] += 1
            if firing.label is not None:
                waits.setdefault(firing.transition, []).append(firing.wait)

    probabilities: dict[tuple[str, str], float] = {}
    for place in net.places:
        outs = net.postset(place)
        if not outs:
            continue
        total = sum(consumed[(place, t)] for t in outs)
        for t in outs:
            probabilities[(place, t)] = (
                consumed[(place, t)] / total if total else 1.0 / len(outs))

    delays = {t: EmpiricalDelay(tuple(v)) for t, v in waits.items()}
    return StochasticPetriNet(net, probabilities, delays)


def enrich(net: PetriNet, log: EventLog) -> StochasticPetriNet:
    """Replay the log and build the stochastic net in one step."""
    return enrich_from_replays(net, replay_log(net, log))


@dataclass(frozen=True)
class ActivityWaits:
    mean: float
    median: float
    count: int


@dataclass(frozen=True)
class WaitingStats:
    """Per-account waiting summaries plus the mean of per-account means."""

    per_activity: dict[str, ActivityWaits]
    mean_of_means: float


def waiting_time_stats(replays: Sequence[ReplayResult]) -> WaitingStats:
    """Summarize waits per account; the headline number averages the
    per-account means, so prolific accounts do not dominate."""
    waits: dict[str, list[float]] = {}
    for result in replays:
        if not result.conforming:
            continue
        for firing in result.firings:
            if firing.label is not None:
                waits.setdefault(firing.label, []).append(firing.wait)
    if not waits:
        raise StatsError("no conforming replay with observable firings")
    per_activity = {a: ActivityWaits(float(mean(v)), float(median(v)), len(v))
                    for a, v in sorted(waits.items())}
    overall = float(mean(s.mean for s in per_activity.values()))
    return WaitingStats(per_activity, overall)


def fspn_to_json(fspn: StochasticPetriNet) -> str:
    """Net JSON extended with arc probabilities and delay sample arrays."""
    doc = json.loads(net_to_json(fspn.net))
    doc["arc_probabilities"] = [
        {"place": p, "transition": t, "probability": prob}
        for (p, t), prob in sorted(fspn.arc_probabilities.items())
    ]
    doc["delay_distributions"] = {
        t: list(d.samples) for t, d in sorted(fspn.delay_distributions.items())
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def fspn_from_json(text: str | IO[str]) -> StochasticPetriNet:
    doc = json.loads(text if isinstance(text, str) else text.read())
    net = net_from_json(json.dumps(doc))
    probabilities = {(e["place"], e["transition"]): float(e["probability"])
                     for e in doc["arc_probabilities"]}
    delays = {t: EmpiricalDelay(tuple(float(x) for x in samples))
              for t, samples in doc["delay_distributions"].items()}
    return StochasticPetriNet(net, probabilities, delays)


def simulate(fspn: StochasticPetriNet, n_traces: int, seed: int = 42,
             max_firings: int = 1000) -> EventLog:
    """Generate an event log by playing the stochastic net forward.

    Each trace starts at clock zero.  Marked places route one token to an
    output transition drawn from the arc probabilities; labeled transitions
    fire after a delay resampled from their empirical distribution, silent
    ones immediately.  Firings due at the same instant execute in transition
    id order.  Each trace uses its own random stream derived from
    ``(seed, trace index)``, so generation is reproducible and traces are
    independent.
    """
    if n_traces < 0:
        raise ValueError("n_traces must be nonnegative")
    net = fspn.net
    kernel = net.kernel
    t_index = {t: i for i, t in enumerate(net.transitions)}
    p_index = {p: i for i, p in enumerate(net.places)}
    delay_pool = {t: np.asarray(d.samples, dtype=float)
                  for t, d in fspn.delay_distributions.items()}

    traces: list[Trace] = []
    for trace_no in range(n_traces):
        rng = np.random.default_rng((seed, trace_no))
        counts: dict[str, int] = {p: n for p, n in net.initial_marking.items() if n > 0}
        pending: list[tuple[float, int, str]] = []
        emitted: list[tuple[float, int, str]] = []
        clock = 0.0
        fired = 0

        def select_once() -> bool:
            """Route one token from each marked place, in net place order."""
            nonlocal fired
            progressed = False
            for place in sorted(counts, key=p_index.__getitem__):
                if place not in counts:  # a join earlier in this pass took it
                    continue
                outs = net.postset(place)
                if not outs:
                    continue
                if len(outs) == 1 and len(kernel.pre[outs[0]]) > 1:
                    chosen = outs[0]  # a join, which waits for all its inputs
                    if not kernel.can_fire(counts, chosen):
                        continue
                else:
                    probs = [fspn.arc_probabilities.get((place, t), 0.0) for t in outs]
                    total = sum(probs)
                    if total <= 0:
                        continue
                    chosen = outs[rng.choice(len(outs), p=[x / total for x in probs])]
                # free choice: a transition other than a join has one input
                remove_tokens(counts, kernel.pre[chosen])
                delay = 0.0
                if not net.is_silent(chosen):
                    pool = delay_pool.get(chosen)
                    if pool is not None and len(pool):
                        delay = float(pool[rng.integers(len(pool))])
                heapq.heappush(pending, (clock + delay, t_index[chosen], chosen))
                fired += 1
                progressed = True
            return progressed

        def pop_due_batch() -> None:
            nonlocal clock
            due = pending[0][0]
            clock = due
            while pending and pending[0][0] == due:
                _, idx, transition = heapq.heappop(pending)
                add_tokens(counts, kernel.post[transition])
                if not net.is_silent(transition):
                    emitted.append((due, idx, net.label(transition)))

        while fired < max_firings:
            progressed = select_once()
            if not pending:
                if not progressed:
                    break
                continue
            if progressed and pending[0][0] > clock:
                continue
            pop_due_batch()
        while pending:  # firings selected before the cap still complete
            pop_due_batch()

        trace_id = f"t{trace_no}"
        events = tuple(Event(trace_id, label, int(round(when)))
                       for when, _, label in sorted(emitted))
        traces.append(Trace(trace_id, events))
    return EventLog(tuple(traces))
