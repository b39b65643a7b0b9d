"""Stochastic enrichment and simulation of discovered nets.

Token replay walks a trace over the net, routing through silent transitions
where needed, and records for every firing when the transition became enabled
and when it fired.  One walk over the replays, :func:`tally_replays`,
gathers what every later stage reads: the firing counts behind the arc
probabilities, the waits behind the per-account delay distributions and
waiting statistics, the marking moves whose entropy
``analysis.replay_entropy`` takes, and the failed replays.  Simulation draws
from numpy's PCG64 stream reimplemented in pure Python, so nothing here
imports numpy.
"""

from __future__ import annotations

import heapq
import json
import math
from bisect import bisect_right
from collections import Counter, deque
from itertools import accumulate
from typing import IO, Iterable, Mapping, NamedTuple, Sequence

from .eventlog import Event, EventLog, Trace
from .petri import (Completion, Kernel, Marking, PetriNet, add_tokens, is_free_choice,
                    json_text, net_from_doc, net_to_doc, remove_tokens)
from .record import Record

PROBABILITY_TOLERANCE = 1e-9


class EnrichmentError(RuntimeError):
    """No conforming trace was available to estimate probabilities from."""


class StatsError(ValueError):
    """Waiting-time statistics requested over no data."""


def mean(values: Sequence[float]) -> float:
    """``statistics.mean`` of ``values``, bit for bit, without importing it.

    The finite values' exact sum, over the largest of their power-of-two
    denominators, is divided once by that denominator times the count; the
    int / int division rounds correctly, as ``statistics`` does on its exact
    sum.  With an infinity or nan among the values the result is, as there,
    the running sum of those alone divided by the count; which nan a sum of
    two nans is depends on CPython's float addition, there as here.
    """
    num, den, special = 0, 1, 0
    for x in values:
        try:
            n, d = x.as_integer_ratio()
        except (OverflowError, ValueError):  # an infinity or nan
            special += x
            continue
        if d > den:
            num, den = num * (d // den), d
        num += n * (den // d)
    return special / len(values) if special else num / (den * len(values))


def median(values: Iterable[float]) -> float:
    """``statistics.median``: the middle value, or the two middle values'
    mean, of the values sorted as ``statistics`` sorts them."""
    data = sorted(values)
    half = len(data) // 2
    return data[half] if len(data) % 2 else (data[half - 1] + data[half]) / 2


class EmpiricalDelay(Record):
    """Observed waiting times of one transition, in seconds."""

    __slots__ = _fields = ("samples",)

    def __init__(self, samples: tuple[float, ...]) -> None:
        if not samples:
            raise ValueError("empirical delay needs at least one sample")
        for s in samples:
            if not 0 <= s < math.inf:  # a nan fails this too
                raise ValueError(f"delays must be finite and nonnegative, got {s!r}")
        self.samples = samples

    def mean(self) -> float:
        return mean(self.samples)


class Firing(NamedTuple):
    """One firing of a replay; ``label`` is None for a silent transition."""

    transition: str
    label: str | None
    enabled_at: float
    fired_at: float

    @property
    def wait(self) -> float:
        return max(0.0, self.fired_at - self.enabled_at)


class ReplayResult(NamedTuple):
    trace_id: str
    firings: tuple[Firing, ...]
    conforming: bool
    failed_index: int | None = None


class StochasticPetriNet(Record):
    """Free-choice net plus per-place arc probabilities and empirical delays.

    Probabilities cover every outgoing place arc and sum to one per place;
    silent transitions never carry a delay distribution.
    """

    __slots__ = _fields = ("net", "arc_probabilities", "delay_distributions")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, net: PetriNet,
                 arc_probabilities: Mapping[tuple[str, str], float],
                 delay_distributions: Mapping[str, EmpiricalDelay]) -> None:
        if not is_free_choice(net):
            raise ValueError("underlying net must be free-choice")
        arcs, transitions = set(net.arcs), set(net.transitions)
        for (p, t), prob in arc_probabilities.items():
            if (p, t) not in arcs:
                raise ValueError(f"probability on missing arc ({p}, {t})")
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"probability {prob} outside [0, 1]")
        for place in net.places:
            outs = net.postset(place)
            if not outs:
                continue
            total = sum(arc_probabilities.get((place, t), 0.0) for t in outs)
            if abs(total - 1.0) > PROBABILITY_TOLERANCE:
                raise ValueError(f"probabilities out of place {place} sum to {total}")
        for t in delay_distributions:
            if t not in transitions:
                raise ValueError(f"delay for unknown transition {t}")
            if net.is_silent(t):
                raise ValueError(f"silent transition {t} cannot carry delays")
        self.net = net
        self.arc_probabilities = arc_probabilities
        self.delay_distributions = delay_distributions


# A silent-path search result: (tau path, goal transition) for an event,
# (tau path, None) for completion, or None when no silent path exists.
SilentPath = tuple[tuple[str, ...], str | None] | None
# A SilentPath, the state after it and the transitions it fires (tau path, goal).
Step = tuple[tuple[str, ...], str | None, Marking, tuple[str, ...]] | None


def _silent_path(kernel: Kernel, counts: dict[str, int],
                 goal_label: str | None) -> SilentPath:
    """Shortest deterministic silent-firing path.

    With a ``goal_label``, returns ``(tau_path, transition)`` where the final
    transition carries that label and is enabled after the path.  With
    ``goal_label=None``, returns ``(tau_path, None)`` where the path reaches
    the nearest dead marking (no transition enabled at all); ``None`` when no
    such path exists.  Search depth is bounded by the number of silent
    transitions in the net.  Ties break first on the fewest silent firings,
    then on net transition order: the path is the lexicographically least,
    in net order, of the shortest ones, and the goal transition the first
    enabled one.  The result depends only on the net, the marking and the
    goal, which is what lets replay memoize it.

    A goal search is a breadth-first search (BFS) that expands only
    ``kernel.relevant(goal_label)``, the silent transitions that can feed
    the goal; every shortest path uses those only.  Completion descends the
    net's exact completion distance (``kernel.completion()``, certified by
    the net being block-structured): from each marking it fires the first
    enabled silent transition, in net order, that lowers the distance by
    one firing, which is the next step of the least shortest path.  It
    returns ``None`` when a token has no silent way out, when no such step
    is enabled, or when the distance exceeds the depth bound.  On a net
    without the certificate completion is a BFS over every silent
    transition.
    """
    if goal_label is not None:
        goals = kernel.by_label.get(goal_label, ())
        among = kernel.relevant(goal_label)
    elif (completion := kernel.completion()) is None:
        goals, among = None, kernel.silent
    else:
        return _descend(kernel, completion, counts)
    max_depth = len(kernel.silent)
    queue: deque[tuple[dict[str, int], tuple[str, ...]]] = deque([(counts, ())])
    seen = {frozenset(counts.items())}
    while queue:
        current, path = queue.popleft()
        if goals is None:
            if not kernel.enabled(current):
                return path, None
        elif hits := kernel.enabled(current, goals):
            return path, hits[0]
        if len(path) >= max_depth:
            continue
        for t in kernel.enabled(current, among):
            succ = kernel.fire(current, t)
            k = frozenset(succ.items())
            if k not in seen:
                seen.add(k)
                queue.append((succ, path + (t,)))
    return None


def _descend(kernel: Kernel, completion: Completion,
             counts: dict[str, int]) -> SilentPath:
    """The completion path down ``completion``'s distance from ``counts``."""
    scale, cost, steps = completion
    distance = 0
    for p, n in counts.items():
        if cost[p] is None:
            return None
        distance += n * cost[p]
    if distance > scale * len(kernel.silent):
        return None
    counts = dict(counts)  # fired in place; the caller's counts stay as given
    keys, needs, path = counts.keys(), kernel.needs, []
    while distance > 0:
        for t in steps:
            if keys >= needs[t]:
                break
        else:
            return None
        kernel._fire(counts, t)
        path.append(t)
        distance -= scale
    return tuple(path), None


_UNSEEN = object()


def _step(kernel: Kernel, state: Marking, goal: str | None) -> Step:
    """``_silent_path`` from ``state`` for ``goal`` and the state it leads
    to, memoized on the kernel by state; a goal search is also memoized by
    the marking of ``kernel.reads(goal)``, the places that decide it."""
    if (found := kernel.paths.get((state, goal), _UNSEEN)) is not _UNSEEN:
        return found
    counts = dict(state)
    if goal is None:
        found = _silent_path(kernel, counts, None)
    else:
        near = (goal, tuple(map(counts.get, kernel.reads(goal))))
        if (found := kernel.searches.get(near, _UNSEEN)) is _UNSEEN:
            found = kernel.searches[near] = _silent_path(kernel, counts, goal)
    if found is not None:
        path, target = found
        steps = path if target is None else path + (target,)
        found = (path, target, kernel.successor(state, *steps), steps)
    kernel.paths[state, goal] = found
    return found


def replay_trace(net: PetriNet, trace: Trace) -> ReplayResult:
    """Replay one trace, extracting enablement and firing times per event.

    For each observed event the shortest silent path that enables a matching
    transition is fired first (fewest silent firings, then net transition
    order; see ``_silent_path``), found by a search over the silent
    transitions that can feed that account's transitions; initial tokens
    carry the trace's first timestamp so the opening firing waits zero.
    After the last event the replay silently completes to the nearest dead
    marking, which attributes skipped branches to their silent transitions.
    On a block-structured net, which every discovered net is, completion
    descends the net's exact completion distance, one scan of its silent
    transitions per firing; elsewhere it is a breadth-first search.  If
    some event cannot be enabled the result is nonconforming at that index.

    The current marking is a state of the net's kernel.  A search depends
    only on the net, the marking and the account, so its result and the
    state it leads to are memoized on the kernel by (state, account), with
    ``None`` for completion, and shared by every replay on the net; a goal
    search is also memoized by the marking of the places it tests.

    Each place holds a heap of its tokens' arrival times.  A firing takes
    the oldest token of each input place and is enabled when the latest of
    those arrived; a silent firing happens at once and passes that time
    on, a labeled one stamps its outputs with the event's timestamp.
    """
    kernel, state = net.kernel, net.kernel.start
    pre, pure_in, pure_out, labels = kernel.pre, kernel.pure_in, kernel.pure_out, net.labels
    pop, push, new = heapq.heappop, heapq.heappush, tuple.__new__
    events = trace.events
    stamp = float(events[0].timestamp) if events else 0.0
    tokens = {p: [stamp] * n for p, n in kernel.marked.items()}
    firings: list[Firing] = []
    add = firings.append
    for index, event in enumerate((*events, None)):  # None: complete the trace
        found = _step(kernel, state, None if event is None else event.activity)
        if found is None:
            if event is None:
                break
            return ReplayResult(trace.trace_id, tuple(firings), False, index)
        state, steps = found[2:]
        if event is not None:
            stamp = float(event.timestamp)
        for t in steps:
            enabled_at = 0.0
            for p in pre[t]:
                if tokens[p][0] > enabled_at:
                    enabled_at = tokens[p][0]
            for p in pure_in[t]:
                pop(tokens[p])
            label = labels[t]
            fired_at = enabled_at if label is None else stamp
            for p in pure_out[t]:
                push(tokens.setdefault(p, []), fired_at)
            add(new(Firing, (t, label, enabled_at, fired_at)))
    return ReplayResult(trace.trace_id, tuple(firings), True, None)


def replay_log(net: PetriNet, log: EventLog) -> list[ReplayResult]:
    """Replay every trace; the silent-path memo on the net's kernel carries
    over from trace to trace and from call to call."""
    return [replay_trace(net, trace) for trace in log.traces]


class ReplayTally(NamedTuple):
    """What the replays of one net show, gathered in one walk.

    Of the conforming replays, ``fired`` counts each transition's firings;
    ``waits`` maps each labeled transition that fired to its label and its
    clamped waits; ``moves`` counts the moves between markings, each replay
    closed back from its end to the initial marking, in the order they were
    first seen.  ``failures`` holds each nonconforming replay's ``(trace_id,
    failed_index)``.  Everything is in replay order, then firing order.
    """

    conforming: int
    fired: Counter[str]
    waits: dict[str, tuple[str, list[float]]]
    moves: dict[tuple[Marking, Marking], int]
    failures: list[tuple[str, int | None]]


def tally_replays(net: PetriNet, replays: Iterable[ReplayResult]) -> ReplayTally:
    """Walk the firings of the conforming replays once and list the others;
    given a generator, no replay outlives its walk.  A replay's markings are
    looked up in the successor table of the net's kernel, which replaying on
    the net filled; ``ValueError`` if a replay fires a transition where it
    is not enabled."""
    kernel = net.kernel
    succ, successor, start = kernel.succ, kernel.successor, kernel.start
    conforming = 0
    # (state, transition) -> firings, with (state, None) the closing moves
    steps: dict[tuple[Marking, str | None], int] = {}
    waits: dict[str, tuple[str, list[float]]] = {}
    failures: list[tuple[str, int | None]] = []
    for result in replays:
        if not result.conforming:
            failures.append((result.trace_id, result.failed_index))
            continue
        conforming += 1
        state = start
        for t, label, enabled_at, fired_at in result.firings:
            key = state, t
            steps[key] = steps.get(key, 0) + 1
            if label is not None:
                if t not in waits:
                    waits[t] = label, []
                wait = fired_at - enabled_at
                waits[t][1].append(wait if wait > 0.0 else 0.0)  # Firing.wait, nan too
            if (state := succ.get(key)) is None and (state := successor(*key)) is None:
                raise ValueError(f"replay of {result.trace_id} fires {t} where "
                                 f"it is not enabled")
        key = state, None
        steps[key] = steps.get(key, 0) + 1
    # A move is first seen at the first firing of one of its keys, so folding
    # the keys in first-seen order keeps the moves' first-seen order.
    fired: Counter[str] = Counter()
    moves: dict[tuple[Marking, Marking], int] = {}
    for (state, t), n in steps.items():
        if t is None:
            move = state, start
        else:
            fired[t] += n
            move = state, succ[state, t]
        moves[move] = moves.get(move, 0) + n
    return ReplayTally(conforming, fired, waits, moves, failures)


def enrich_from_tally(net: PetriNet, tally: ReplayTally) -> StochasticPetriNet:
    """Estimate arc probabilities and delay distributions from a tally.

    ``Pr(p, t)`` is the share of tokens consumed from ``p`` that went to
    ``t``; places never visited by any conforming replay fall back to a
    uniform split.  A firing of ``t`` takes one token from each input place,
    so ``p`` gave ``t`` its firings.
    """
    if not tally.conforming:
        raise EnrichmentError("no conforming replay to enrich from")
    fired = tally.fired
    probabilities: dict[tuple[str, str], float] = {}
    for place in net.places:
        outs = net.postset(place)
        if not outs:
            continue
        total = sum(fired[t] for t in outs)
        for t in outs:
            probabilities[(place, t)] = fired[t] / total if total else 1.0 / len(outs)

    delays = {t: EmpiricalDelay(tuple(v)) for t, (_, v) in tally.waits.items()}
    return StochasticPetriNet(net, probabilities, delays)


def enrich_from_replays(net: PetriNet,
                        replays: Sequence[ReplayResult]) -> StochasticPetriNet:
    """:func:`enrich_from_tally` over the replays; nonconforming ones are ignored."""
    return enrich_from_tally(net, tally_replays(net, replays))


def enrich(net: PetriNet, log: EventLog) -> StochasticPetriNet:
    """Replay the log and build the stochastic net in one step."""
    return enrich_from_replays(net, replay_log(net, log))


class ActivityWaits(NamedTuple):
    mean: float
    median: float
    count: int


class WaitingStats(NamedTuple):
    """Per-account waiting summaries plus the mean of per-account means."""

    per_activity: dict[str, ActivityWaits]
    mean_of_means: float


def waiting_time_stats(tally: ReplayTally) -> WaitingStats:
    """Summarize a tally's waits per account, the waits of transitions that
    share a label together; the headline number averages the per-account
    means, so prolific accounts do not dominate."""
    waits: dict[str, list[float]] = {}
    for label, samples in tally.waits.values():
        waits.setdefault(label, []).extend(samples)
    if not waits:
        raise StatsError("no conforming replay with observable firings")
    per_activity = {a: ActivityWaits(mean(v), float(median(v)), len(v))
                    for a, v in sorted(waits.items())}
    overall = mean([s.mean for s in per_activity.values()])
    return WaitingStats(per_activity, overall)


def fspn_to_json(fspn: StochasticPetriNet) -> str:
    """Net JSON extended with arc probabilities and delay sample arrays."""
    doc = net_to_doc(fspn.net)
    doc["arc_probabilities"] = [
        {"place": p, "transition": t, "probability": prob}
        for (p, t), prob in sorted(fspn.arc_probabilities.items())
    ]
    doc["delay_distributions"] = {
        t: list(d.samples) for t, d in sorted(fspn.delay_distributions.items())
    }
    return json_text(doc)


def fspn_from_json(text: str | IO[str]) -> StochasticPetriNet:
    doc = json.loads(text if isinstance(text, str) else text.read())
    net = net_from_doc(doc)
    probabilities = {(e["place"], e["transition"]): float(e["probability"])
                     for e in doc["arc_probabilities"]}
    delays = {t: EmpiricalDelay(tuple(float(x) for x in samples))
              for t, samples in doc["delay_distributions"].items()}
    return StochasticPetriNet(net, probabilities, delays)


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class _Stream:
    """numpy's ``np.random.default_rng(entropy)`` stream, in pure Python.

    ``choice(_cdf(p))`` and ``integers(n)`` return what ``Generator.choice(
    len(p), p=p)`` and ``Generator.integers(n)`` return, draw for draw, for
    any interleaving of the two.  numpy's ``SeedSequence`` hashes the entropy
    into the state of a PCG64 generator (XSL-RR 128/64; O'Neill, "PCG: A
    Family of Simple Fast Space-Efficient Statistically Good Algorithms for
    Random Number Generation", HMC-CS-2014-0905).  A negative entropy int
    raises ``ValueError``, as in numpy.
    """

    def __init__(self, entropy: Iterable[int]) -> None:
        words: list[int] = []  # each int as little-endian uint32 words
        for n in entropy:
            if n < 0:
                raise ValueError("expected non-negative integer")
            words.append(n & _MASK32)
            while n := n >> 32:
                words.append(n & _MASK32)

        const = 0x43B0D7E5  # SeedSequence's mix_entropy over a pool of 4

        def hashmix(value: int) -> int:
            nonlocal const
            value ^= const
            const = const * 0x931E8875 & _MASK32
            value = value * const & _MASK32
            return value ^ value >> 16

        def mix(x: int, y: int) -> int:
            r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
            return r ^ r >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))

        const = 0x8B51F9DD  # generate_state(4, uint64): 8 uint32 words
        state = []
        for i in range(8):
            value = pool[i % 4] ^ const
            const = const * 0x58F38DED & _MASK32
            value = value * const & _MASK32
            state.append(value ^ value >> 16)
        seed = [state[2 * i] | state[2 * i + 1] << 32 for i in range(4)]
        initstate, initseq = seed[0] << 64 | seed[1], seed[2] << 64 | seed[3]

        self._inc = (initseq << 1 | 1) & _MASK128
        self._state = (self._inc + initstate) & _MASK128  # one step from 0
        self._state = (self._state * _PCG64_MULT + self._inc) & _MASK128
        self._high32: int | None = None  # the unused half of a next64

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG64_MULT + self._inc) & _MASK128
        x, rot = (s >> 64 ^ s) & _MASK64, s >> 122
        return (x >> rot | x << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._high32 is not None:
            high, self._high32 = self._high32, None
            return high
        x = self._next64()
        self._high32 = x >> 32
        return x & _MASK32

    def choice(self, cdf: Sequence[float]) -> int:
        """An index drawn by the CDF ``_cdf(p)`` of probabilities ``p``."""
        return bisect_right(cdf, (self._next64() >> 11) * 2.0 ** -53)

    def integers(self, n: int) -> int:
        """A uniform int in ``[0, n)`` for ``1 <= n <= 2**32``, by Lemire's
        method with rejection; ``n == 1`` draws nothing."""
        if n == 1:
            return 0
        m = self._next32() * n
        if m & _MASK32 < n:
            threshold = ((1 << 32) - n) % n
            while m & _MASK32 < threshold:
                m = self._next32() * n
        return m >> 32


def _cdf(p: Sequence[float]) -> list[float]:
    """The running sums of ``p`` over their total, as numpy's ``choice`` has them."""
    cdf = list(accumulate(p))
    return [c / cdf[-1] for c in cdf]


def simulate(fspn: StochasticPetriNet, n_traces: int, seed: int = 42,
             max_firings: int = 1000) -> EventLog:
    """Generate an event log by playing the stochastic net forward.

    Each trace starts at clock zero.  Marked places route one token to an
    output transition drawn from the arc probabilities; labeled transitions
    fire after a delay resampled from their empirical distribution, silent
    ones immediately.  Firings due at the same instant execute in transition
    id order.  Once ``max_firings`` transitions have been drawn no more are,
    and the trace ends when those drawn have fired.  Each trace draws from
    its own random stream, numpy's PCG64 ``default_rng((seed, trace
    index))`` reimplemented in pure Python, so generation is reproducible,
    traces are independent, and the draws are those numpy would make.  A
    negative ``n_traces``, ``seed`` or ``max_firings`` raises ``ValueError``
    before any draw.
    """
    if n_traces < 0:
        raise ValueError("n_traces must be nonnegative")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if max_firings < 0:
        raise ValueError("max_firings must be nonnegative")
    net = fspn.net
    kernel = net.kernel
    t_index = {t: i for i, t in enumerate(net.transitions)}
    p_index = {p: i for i, p in enumerate(net.places)}
    delay_pool = {t: d.samples for t, d in fspn.delay_distributions.items()}
    # place -> its join, or its outputs and the CDF of their normalised
    # probabilities; a place with no outputs or no probability mass routes nothing
    routes: dict[str, str | tuple[tuple[str, ...], list[float]]] = {}
    for place in net.places:
        outs = kernel.post[place]
        if len(outs) == 1 and len(kernel.pre[outs[0]]) > 1:
            routes[place] = outs[0]  # a join, which waits for all its inputs
            continue
        probs = [fspn.arc_probabilities.get((place, t), 0.0) for t in outs]
        total = sum(probs)
        if total > 0:
            routes[place] = (outs, _cdf([x / total for x in probs]))

    traces: list[Trace] = []
    for trace_no in range(n_traces):
        stream = _Stream((seed, trace_no))
        counts: dict[str, int] = {p: n for p, n in net.initial_marking.items() if n > 0}
        pending: list[tuple[float, int, str]] = []
        emitted: list[tuple[float, int, str]] = []
        clock = 0.0
        fired = 0
        while True:
            if fired < max_firings:
                # route one token from each marked place, in net place order
                routed_from = fired
                for place in sorted(counts, key=p_index.__getitem__):
                    if (route := routes.get(place)) is None:
                        continue
                    if isinstance(route, str):  # a place a join emptied routes to it
                        chosen = route
                        if not kernel.can_fire(counts, chosen):
                            continue
                    else:
                        outs, cdf = route
                        chosen = outs[stream.choice(cdf)]
                    # free choice: a transition other than a join has one input
                    remove_tokens(counts, kernel.pre[chosen])
                    pool = delay_pool.get(chosen)
                    delay = 0.0 if pool is None else float(pool[stream.integers(len(pool))])
                    heapq.heappush(pending, (clock + delay, t_index[chosen], chosen))
                    fired += 1
                if fired > routed_from and pending[0][0] > clock:
                    continue
            if not pending:
                break
            clock = pending[0][0]
            while pending and pending[0][0] == clock:
                _, idx, transition = heapq.heappop(pending)
                add_tokens(counts, kernel.post[transition])
                if not net.is_silent(transition):
                    emitted.append((clock, idx, net.label(transition)))

        trace_id = f"t{trace_no}"
        events = tuple(Event(trace_id, label, int(round(when)))
                       for when, _, label in sorted(emitted))
        traces.append(Trace(trace_id, events))
    return EventLog(tuple(traces))
