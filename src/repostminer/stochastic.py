"""Stochastic enrichment and simulation of discovered nets.

Token replay walks a trace over the net, routing through silent transitions
where needed, and records for every firing when the transition became enabled
and when it fired.  One walk over the replays, :func:`tally_replays`,
gathers what every later stage reads: the firing counts behind the arc
probabilities, the waits behind the per-account delay distributions and
waiting statistics, the marking moves whose entropy
``analysis.replay_entropy`` takes, and the failed replays.  The CLI tallies
traces with :func:`tally_log`, which gives the same tally; on a
block-structured net it builds no replay: each memoized step carries a
token-time program, and the tally counts steps, not firings.  Replay's
silent-path search, with its relevance plans, completion distance and
memo, lives here too, one state per net (``_Search``).  Simulation gives
each trace ``i`` its own stdlib stream, ``random.Random(f"{seed}:{i}")``,
whose ``str`` seed is hashed with SHA-512, so simulated logs do not depend
on the hash seed; they are not the logs ``default_rng((seed, i))`` draws.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from bisect import bisect_right
from collections import Counter, deque
from itertools import accumulate
from typing import IO, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .eventlog import Event, EventLog, Trace
from .petri import (Kernel, Marking, PetriNet, add_tokens, is_block_structured,
                    is_free_choice, json_text, net_from_doc, net_to_doc, remove_tokens)
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
    """One replay and how it ended.  A fitting replay (``conforming``) fired
    every event and completed to a dead marking.  Otherwise ``failed_index``
    is the index of the first event no silent path could enable, or ``None``
    when every event fired but no silent path completes the trace: the trace
    fits only as a prefix.  ``firings`` are those made before the replay
    stopped."""

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


class _Search:
    """Replay's silent-path search state for one net, kept in its kernel's
    ``search`` slot from the net's first replay on, so that every replay on
    the net shares it: each account's :func:`_plan`; whether the net is
    block-structured (``safe``) and, if it is, its
    :func:`_completion_distance` (else ``None``); one memo, ``steps``,
    which maps ``(state, account)``, with ``None`` for completion, to the
    step (see :func:`_step`), or to ``None`` when there is no step; and
    ``shared``, which holds each tuple of the steps' token-time programs
    once.
    """

    __slots__ = ("plans", "safe", "completion", "steps", "shared")

    def __init__(self, net: PetriNet) -> None:
        kernel, labels, goals = net.kernel, net.labels, {}
        for t in net.transitions:
            if (label := labels[t]) is not None:
                goals[label] = goals.get(label, ()) + (t,)
        feeders = {p: [t for t in kernel.pre[p] if labels[t] is None] for p in net.places}
        self.plans = {label: _plan(kernel, feeders, ts) for label, ts in goals.items()}
        self.safe = is_block_structured(kernel)
        self.completion = _completion_distance(kernel) if self.safe else None
        self.steps: dict[tuple[Marking, str | None], tuple | None] = {}
        self.shared: dict[tuple, tuple] = {}


def _with_search(net: PetriNet) -> Kernel:
    """The net's kernel, its search state built if it holds none."""
    kernel = net.kernel
    if kernel.search is None:
        kernel.search = _Search(net)
    return kernel


def _plan(kernel: Kernel, feeders: Mapping[str, list[str]], goals: tuple[str, ...],
          ) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """How replay searches for ``goals``, one account's transitions:
    ``(goals, among)``, with ``among`` the silent transitions
    backward-reachable, through silent transitions, from the goals' input
    places, in net order.  A silent firing outside ``among`` puts no token
    where a transition of ``among`` or a goal needs one, so every shortest
    silent path to a goal uses ``among`` only.  ``feeders`` maps each place
    to its silent input transitions."""
    pre = kernel.pre
    places = {p for g in goals for p in pre[g]}
    stack, feeding = list(places), set()
    while stack:
        for t in feeders[stack.pop()]:
            if t not in feeding:
                feeding.add(t)
                fresh = [q for q in pre[t] if q not in places]
                places.update(fresh)
                stack += fresh
    return goals, tuple(t for t in kernel.silent if t in feeding)


def _completion_distance(kernel: Kernel,
                         ) -> tuple[int, dict[str, int | None], tuple[str, ...]] | None:
    """The net's exact completion distance ``(scale, cost, steps)`` in units
    of ``1/scale`` silent firings, or ``None`` where a cost would not divide
    evenly.  ``cost`` maps every place to what one token there costs to
    complete (``None``: no silent path empties the place); ``steps`` are the
    silent transitions whose firing lowers the distance by exactly one
    firing (``drop == scale``), in net order.

    A place with no output arcs costs 0; any other place costs the minimum,
    over its silent output transitions t, of ``(1 + the costs of t's output
    places) / |pre(t)|``, which shares a join's firing among its inputs
    (labeled outputs do not count; loops are resolved by iterating to a
    fixed point).  A marking's distance is the sum of its tokens' costs, and
    firing a silent t lowers it by ``drop(t) = cost(pre(t)) -
    cost(post(t))``.  Costs are integers in units of ``1/scale`` firings,
    ``scale`` being the product of the silent transitions' input counts, so
    comparisons are exact.

    The distance is exact on a net that ``petri.is_block_structured``
    certifies: three classical reduction rules (Murata, Proc. IEEE 1989)
    reduce it to its one marked place, as they do every process tree's net.
    From each reachable marking of such a net the distance is the fewest
    silent firings to a dead marking.
    """
    pre, post, silent = kernel.pre, kernel.post, kernel.silent
    is_silent = set(silent)
    scale = 1
    for t in silent:
        scale *= len(pre[t])
    cost: dict[str, int | None] = {p: None if post[p] else 0 for p in kernel.places}
    changed = True
    while changed:  # costs only fall, in steps of at least 1/scale
        changed = False
        for p in reversed(kernel.places):
            for t in post[p]:
                if t not in is_silent:
                    continue
                outs = [cost[q] for q in post[t]]
                if None in outs:
                    continue
                c, rest = divmod(scale + sum(outs), len(pre[t]))
                if rest:
                    return None
                if cost[p] is None or c < cost[p]:
                    cost[p], changed = c, True

    def lowers_by_one(t: str) -> bool:
        ins, outs = [cost[p] for p in pre[t]], [cost[p] for p in post[t]]
        return None not in ins + outs and sum(ins) - sum(outs) == scale

    return scale, cost, tuple(filter(lowers_by_one, silent))


def _silent_path(kernel: Kernel, counts: dict[str, int],
                 goal_label: str | None) -> tuple[str, ...] | None:
    """The transitions of the shortest deterministic silent-firing path.

    With a ``goal_label``, the silent path and then a transition carrying
    that label, enabled after the path.  With ``goal_label=None``, the
    silent path to the nearest dead marking (no transition enabled at all).
    ``None`` when no such path exists.  Search depth is bounded by the
    number of silent transitions in the net.  Ties break first on the
    fewest silent firings, then on net transition order: the path is the
    lexicographically least, in net order, of the shortest ones, and the
    goal transition the first enabled one.  The result depends only on the
    net, the marking and the goal, which is what lets replay memoize it.

    A goal search is a breadth-first search (BFS) that expands only the
    silent transitions of the account's plan, those that can feed the goal;
    every shortest path uses those only.  When a goal is enabled at the
    marking itself, as it is for most events a replay meets, the search
    returns it before it builds its queue.  Completion descends the net's
    exact completion distance (certified by the net being
    block-structured): from each marking it fires the first enabled
    silent transition, in net order, that lowers the distance by one
    firing, which is the next step of the least shortest path.  It returns
    ``None`` when a token has no silent way out, when no such step is
    enabled, or when the distance exceeds the depth bound.  On a net
    without the certificate completion is a BFS over every silent
    transition.  The search state is the kernel's (:func:`_with_search`).
    """
    search: _Search = kernel.search  # type: ignore[assignment]
    if goal_label is not None:
        if (plan := search.plans.get(goal_label)) is None:
            return None  # no transition carries the label
        goals, among = plan
        if hits := kernel.enabled(counts, goals):
            return (hits[0],)  # what the search returns at its first pop
    elif search.completion is None:
        goals, among = None, kernel.silent
    else:
        return _descend(kernel, search.completion, counts)
    max_depth = len(kernel.silent)
    queue: deque[tuple[dict[str, int], tuple[str, ...]]] = deque([(counts, ())])
    seen = {frozenset(counts.items())}
    while queue:
        current, path = queue.popleft()
        if goals is None:
            if not kernel.enabled(current):
                return path
        elif hits := kernel.enabled(current, goals):
            return path + (hits[0],)
        if len(path) >= max_depth:
            continue
        for t in kernel.enabled(current, among):
            succ = kernel.fire(current, t)
            k = frozenset(succ.items())
            if k not in seen:
                seen.add(k)
                queue.append((succ, path + (t,)))
    return None


def _descend(kernel: Kernel, completion: tuple[int, dict[str, int | None], tuple[str, ...]],
             counts: dict[str, int]) -> tuple[str, ...] | None:
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
    return tuple(path)


_UNSEEN = object()


def _step(kernel: Kernel, state: Marking, goal: str | None) -> tuple | None:
    """The step ``_silent_path`` takes from ``state`` for ``goal``,
    memoized by (state, goal) in the kernel's search state: the state after
    the step and the transitions it fires, followed, for a goal on a net
    with the safety certificate, by the step's token-time program
    (:func:`_program`); or ``None`` when there is no step."""
    search: _Search = kernel.search  # type: ignore[assignment]
    if (found := search.steps.get((state, goal), _UNSEEN)) is not _UNSEEN:
        return found
    found = None
    if (fired := _silent_path(kernel, dict(state), goal)) is not None:
        found = kernel.successor(state, *fired), fired
        if goal is not None and search.safe:
            found += _program(kernel, fired, search.shared)
    search.steps[state, goal] = found
    return found


def _program(kernel: Kernel, fired: tuple[str, ...], shared: dict[tuple, tuple],
             ) -> tuple[tuple[str, ...], tuple, tuple[str, ...]]:
    """How a goal step, ``fired``, moves token times on a safe net,
    ``(sources, sets, outs)``, in terms of the times before the step: the
    goal, ``fired[-1]``, is enabled at the latest time of ``sources``,
    clamped below at 0.0; each ``(place, its sources)`` of ``sets`` is a
    place the step's silent firings leave marked, at the latest time of
    its sources; ``outs``, the goal's outputs, get the event's stamp.
    :func:`replay_trace` clamps each silent firing's time too, which gives
    the same goal times.  An emptied place is not listed, as a safe net's
    place time is read only while its token is there.  The tuples come
    from the kernel or from ``shared``, so that steps share them."""
    pre, pure_in, pure_out = kernel.pre, kernel.pure_in, kernel.pure_out
    *path, goal = fired
    if not path:
        return pre[goal], (), pure_out[goal]
    origin: dict[str, tuple[str, ...] | None] = {}  # place -> its token's sources

    def sources(t: str) -> tuple[str, ...]:
        return tuple(dict.fromkeys(q for p in pre[t] for q in origin.get(p, (p,))))

    for t in path:
        srcs = sources(t)
        origin.update(dict.fromkeys(pure_in[t]))
        origin.update(dict.fromkeys(pure_out[t], srcs))
    sets = tuple((p, srcs) for p, srcs in origin.items()
                 if srcs is not None and p not in pure_in[goal])
    srcs = sources(goal)
    return shared.setdefault(srcs, srcs), shared.setdefault(sets, sets), pure_out[goal]


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
    some event cannot be enabled the replay fails at that index; if no
    silent path completes the trace, it fits only as a prefix (see
    :class:`ReplayResult`).

    The current marking is a state of the net's kernel.  A search depends
    only on the net, the marking and the account, so its result and the
    state it leads to are memoized by (state, account), with ``None`` for
    completion, in the net's search state (:class:`_Search`), which every
    replay on the net shares.

    Each place holds a heap of its tokens' arrival times.  A firing takes
    the oldest token of each input place and is enabled when the latest of
    those arrived; a silent firing happens at once and passes that time
    on, a labeled one stamps its outputs with the event's timestamp.
    """
    kernel = _with_search(net)
    pre, pure_in, pure_out, labels = kernel.pre, kernel.pure_in, kernel.pure_out, net.labels
    pop, push, new = heapq.heappop, heapq.heappush, tuple.__new__
    events, state = trace.events, kernel.start
    stamp = float(events[0].timestamp) if events else 0.0
    tokens = {p: [stamp] * n for p, n in kernel.marked.items()}
    firings: list[Firing] = []
    add = firings.append
    for index, event in enumerate((*events, None)):  # None: complete the trace
        found = _step(kernel, state, None if event is None else event.activity)
        if found is None:
            return ReplayResult(trace.trace_id, tuple(firings), False,
                                None if event is None else index)
        state, steps = found[0], found[1]
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
    """Replay every trace; the net's search state carries over from trace to
    trace and from call to call."""
    return [replay_trace(net, trace) for trace in log.traces]


class ReplayTally(NamedTuple):
    """What the replays of one net show, gathered in one walk.

    Of the conforming (fitting) replays, ``fired`` counts each transition's
    firings; ``waits`` maps each labeled transition that fired to its label
    and its clamped waits; ``moves`` counts the moves between markings, each
    replay closed back from its end to the initial marking, in the order
    they were first seen.  ``failures`` holds each other replay's
    ``(trace_id, failed_index)``, the index ``None`` for a prefix-only one.
    Everything is in replay order, then firing order.
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
    return _fold(kernel, conforming, steps.items(), waits, failures)


def tally_log(net: PetriNet, traces: Iterable[Trace]) -> ReplayTally:
    """``tally_replays(net, (replay_trace(net, t) for t in traces))``,
    without building a firing or a replay on a net that
    ``petri.is_block_structured`` certifies.  Such a net is safe, so a
    trace's token times are one float per place, and each event costs one
    lookup of its memoized step (:func:`_step`), whose token-time program
    gives the wait and moves the times on.  A fitting trace's steps are
    counted by their memo keys; each step counted becomes its firings once,
    at the end.  Any other net is replayed firing by firing."""
    kernel = _with_search(net)
    search: _Search = kernel.search  # type: ignore[assignment]
    if not search.safe:
        return tally_replays(net, (replay_trace(net, trace) for trace in traces))
    memo, labels, start = search.steps, net.labels, kernel.start
    (marked,) = kernel.marked  # the certificate's one marked place
    conforming = 0
    taken: Counter[tuple[Marking, str | None]] = Counter()  # memo key -> steps
    waits: dict[str, tuple[str, list[float]]] = {}
    failures: list[tuple[str, int | None]] = []
    for trace in traces:
        events, state, keys, goals = trace.events, start, [], []
        times = {marked: float(events[0].timestamp) if events else 0.0}
        for index, event in enumerate(events):
            if (found := memo.get(key := (state, event.activity), _UNSEEN)) is _UNSEEN:
                found = _step(kernel, state, event.activity)
            if found is None:
                failures.append((trace.trace_id, index))
                break
            state, fired, sources, sets, outs = found
            keys.append(key)
            enabled_at = 0.0
            for p in sources:
                if times[p] > enabled_at:
                    enabled_at = times[p]
            if sets:
                times.update([(p, max(map(times.__getitem__, srcs))) for p, srcs in sets])
            stamp = float(event.timestamp)
            for p in outs:
                times[p] = stamp
            wait = stamp - enabled_at
            goals.append((fired[-1], wait if wait > 0.0 else 0.0))
        else:
            if _step(kernel, state, None) is None:
                failures.append((trace.trace_id, None))
                continue
            keys.append((state, None))
            taken.update(keys)
            conforming += 1
            for goal, wait in goals:
                if goal not in waits:
                    waits[goal] = labels[goal], []
                waits[goal][1].append(wait)
    succ = kernel.succ

    def firings() -> Iterator[tuple[tuple[Marking, str | None], int]]:
        # A firing is first made in the first step taken that makes it, so
        # the steps' firings, in the order the steps were first taken, come
        # in the firings' first-seen order.
        for (state, goal), n in taken.items():
            for t in memo[state, goal][1]:
                yield (state, t), n
                state = succ[state, t]
            if goal is None:  # the trace ends: its closing move
                yield (state, None), n

    return _fold(kernel, conforming, firings(), waits, failures)


def _fold(kernel: Kernel, conforming: int,
          counts: Iterable[tuple[tuple[Marking, str | None], int]],
          waits: dict[str, tuple[str, list[float]]],
          failures: list[tuple[str, int | None]]) -> ReplayTally:
    """The tally of the firing counts ``counts``, pairs of a key ``(state,
    transition)``, with ``(state, None)`` a replay's closing move, and a
    count, each key first given in the order the keys were first fired.
    A move is first seen at the first firing of one of its keys, so folding
    the keys in that order keeps the moves' first-seen order."""
    succ, start = kernel.succ, kernel.start
    fired: Counter[str] = Counter()
    moves: dict[tuple[Marking, Marking], int] = {}
    for (state, t), n in counts:
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


class WaitingStats(NamedTuple):
    """Each account's mean wait plus the mean of those means."""

    per_activity: dict[str, float]
    mean_of_means: float


def waiting_time_stats(tally: ReplayTally) -> WaitingStats:
    """Average a tally's waits per account, the waits of transitions that
    share a label together; the headline number averages the per-account
    means, so prolific accounts do not dominate."""
    waits: dict[str, list[float]] = {}
    for label, samples in tally.waits.values():
        waits.setdefault(label, []).extend(samples)
    if not waits:
        raise StatsError("no conforming replay with observable firings")
    per_activity = {a: mean(v) for a, v in sorted(waits.items())}
    return WaitingStats(per_activity, mean(list(per_activity.values())))


def fspn_to_json(fspn: StochasticPetriNet) -> str:
    """Net JSON extended with arc probabilities and delay sample arrays."""
    doc = net_to_doc(fspn.net)
    doc["arc_probabilities"] = [
        {"place": p, "transition": t, "probability": prob}
        for (p, t), prob in sorted(fspn.arc_probabilities.items())
    ]
    doc["delay_distributions"] = {
        t: d.samples for t, d in sorted(fspn.delay_distributions.items())
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


def _cdf(p: Sequence[float]) -> list[float]:
    """The running sums of ``p`` over their total; the last is exactly 1.0."""
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
    and the trace ends when those drawn have fired.  Trace ``i`` draws from
    its own stream, ``random.Random(f"{seed}:{i}")``, so generation is
    reproducible, traces are independent, and the first ``k`` of ``n``
    traces are the ``k`` traces a run of ``k`` gives.  A ``str`` seed is
    hashed with SHA-512, so the output does not depend on the hash seed
    (``PYTHONHASHSEED``).  The draws are not those
    ``default_rng((seed, i))`` makes.  A negative ``n_traces``, ``seed`` or
    ``max_firings`` raises ``ValueError`` before any draw.
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
        rng = random.Random(f"{seed}:{trace_no}")
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
                        chosen = outs[bisect_right(cdf, rng.random())]
                    # free choice: a transition other than a join has one input
                    remove_tokens(counts, kernel.pre[chosen])
                    pool = delay_pool.get(chosen)
                    delay = 0.0 if pool is None else float(rng.choice(pool))
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
