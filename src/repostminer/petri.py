"""Labeled Petri nets: firing semantics, free-choice check, reachability.

Transitions carry either an activity label (an account id) or ``None`` for
silent transitions.  A :class:`Marking` is a frozenset of ``(place, count)``
pairs; each net's firing :class:`Kernel` holds every marking it reaches
once, and replay, ``fire`` and the reachability graph all step through it.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Mapping, NamedTuple

from .record import Record


class NetDefinitionError(ValueError):
    """The net violates a structural invariant (duplicate arcs, bad refs...)."""


class FiringError(ValueError):
    """A transition was fired while not enabled."""


class StateCapError(RuntimeError):
    """Reachability exploration exceeded the configured state cap."""


class Marking(frozenset):
    """Sparse token assignment: the frozenset of its ``(place, count)``
    pairs, built without those whose count is not positive.  Not a
    ``Record``, as frozenset's hash is cached; ``str`` and ``repr`` sort the
    pairs, as set order follows the string hash seed."""

    __slots__ = ()

    def __new__(cls, pairs: Iterable[tuple[str, int]] = ()) -> "Marking":
        return super().__new__(cls, [pair for pair in pairs if pair[1] > 0])

    @classmethod
    def of(cls, counts: Mapping[str, int]) -> "Marking":
        for place, n in counts.items():
            if n < 0:
                raise ValueError(f"negative token count at {place}")
        return cls(counts.items())

    def __str__(self) -> str:
        return "{" + ", ".join(f"{p}:{n}" for p, n in sorted(self)) + "}"

    def __repr__(self) -> str:
        return f"Marking({tuple(sorted(self))!r})"


_marking = frozenset.__new__  # _marking(Marking, pairs), for positive pairs: no filter


class PetriNet(Record):
    """Places, transitions, plain arcs, labels and an initial marking.

    ``labels`` maps every transition id to its label or ``None`` for silent.
    Arcs connect places to transitions or transitions to places, once each.
    ``initial_marking`` defaults to a new empty dict.  ``kernel`` is the net
    compiled for firing, built once with the net; it also holds the pre- and
    postsets.  Equality compares every field but ``kernel``.
    """

    _fields = ("places", "transitions", "arcs", "labels", "initial_marking")
    __slots__ = _fields + ("kernel",)
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, places: tuple[str, ...], transitions: tuple[str, ...],
                 arcs: tuple[tuple[str, str], ...], labels: Mapping[str, str | None],
                 initial_marking: Mapping[str, int] | None = None) -> None:
        if initial_marking is None:
            initial_marking = {}
        pset, tset = set(places), set(transitions)
        if len(pset) != len(places) or len(tset) != len(transitions):
            raise NetDefinitionError("duplicate node ids")
        if pset & tset:
            raise NetDefinitionError(f"places and transitions overlap: {pset & tset}")
        if set(labels) != tset:
            raise NetDefinitionError("labels must cover exactly the transitions")
        if len(set(arcs)) != len(arcs):
            raise NetDefinitionError("duplicate arcs")
        for src, dst in arcs:
            if not ((src in pset and dst in tset) or (src in tset and dst in pset)):
                raise NetDefinitionError(f"arc ({src}, {dst}) is not place<->transition")
        for place, n in initial_marking.items():
            if place not in pset:
                raise NetDefinitionError(f"marked place {place} does not exist")
            if n < 0:
                raise NetDefinitionError(f"negative initial tokens at {place}")
        self.places = places
        self.transitions = transitions
        self.arcs = arcs
        self.labels = labels
        self.initial_marking = initial_marking
        self.kernel = Kernel(self)

    def preset(self, node: str) -> tuple[str, ...]:
        return self.kernel.pre[node]

    def postset(self, node: str) -> tuple[str, ...]:
        return self.kernel.post[node]

    def label(self, transition: str) -> str | None:
        return self.labels[transition]

    def is_silent(self, transition: str) -> bool:
        return self.labels[transition] is None

    def silent_transitions(self) -> tuple[str, ...]:
        return self.kernel.silent

    def initial(self) -> Marking:
        return self.kernel.start

    def node_count(self) -> int:
        return len(self.places) + len(self.transitions)


class RgEdge(NamedTuple):
    src: int
    transition: str
    label: str | None
    dst: int


class ReachabilityGraph(NamedTuple):
    """Markings reachable from the initial marking; state 0 is initial."""

    states: tuple[Marking, ...]
    edges: tuple[RgEdge, ...]
    end_states: tuple[int, ...]


def remove_tokens(counts: dict[str, int], places: Iterable[str]) -> None:
    """Take one token from each place, in place; emptied places drop out."""
    for p in places:
        left = counts[p] - 1
        if left:
            counts[p] = left
        else:
            del counts[p]


def add_tokens(counts: dict[str, int], places: Iterable[str]) -> None:
    for p in places:
        counts[p] = counts.get(p, 0) + 1


class Completion(NamedTuple):
    """A net's completion distance, in units of ``1/scale`` silent firings.

    ``cost`` maps every place to what one token there costs to complete
    (``None``: no silent path empties the place); ``steps`` are the silent
    transitions whose firing lowers the distance by exactly one firing
    (``drop == scale``), in net order.
    """

    scale: int
    cost: dict[str, int | None]
    steps: tuple[str, ...]


class Kernel:
    """A net compiled for firing: the one implementation of its semantics.

    Token counts are dicts holding only positive counts.  A transition is
    enabled when each input place holds a token; firing it takes one token
    from each pure input place and puts one on each pure output place, so a
    self-loop place keeps its token.  ``silent`` and the tuples of
    ``by_label`` keep net order, the tie-break order of every search.

    Two things replay's silent-path searches use are built on first use and
    kept here, so every caller of the net shares them: ``relevant(label)``,
    the silent transitions that can feed a transition with that label, and
    ``completion()``, the exact completion distance of a block-structured
    net (see :meth:`completion`).

    It is also the net's one table of markings: a state is a
    :class:`Marking` held once and built from pairs held once, ``start`` the
    initial one, and ``succ`` maps ``(state, t)`` to the state after firing
    ``t``.  Replay memoizes its searches here, in ``paths`` and ``searches``.
    """

    __slots__ = ("pre", "post", "pure_in", "pure_out", "needs", "silent", "by_label",
                 "feeders", "places", "marked", "_relevant", "_completion",
                 "start", "succ", "paths", "searches", "_states", "_pairs", "_reads")

    def __init__(self, net: PetriNet) -> None:
        nodes, ts = net.places + net.transitions, net.transitions
        pre: dict[str, list[str]] = {n: [] for n in nodes}
        post: dict[str, list[str]] = {n: [] for n in nodes}
        for src, dst in net.arcs:
            post[src].append(dst)
            pre[dst].append(src)
        self.pre = {n: tuple(pre[n]) for n in nodes}
        self.post = {n: tuple(post[n]) for n in nodes}
        self.pure_in = {t: tuple(p for p in pre[t] if p not in post[t]) for t in ts}
        self.pure_out = {t: tuple(p for p in post[t] if p not in pre[t]) for t in ts}
        self.needs = {t: frozenset(pre[t]) for t in ts}
        self.silent = tuple(t for t in ts if net.labels[t] is None)
        self.by_label: dict[str, tuple[str, ...]] = {}
        for t in ts:
            if (label := net.labels[t]) is not None:
                self.by_label[label] = self.by_label.get(label, ()) + (t,)
        self.feeders = {p: tuple(t for t in pre[p] if net.labels[t] is None)
                        for p in net.places}  # the silent producers of each place
        self.places = net.places
        self.marked = {p: n for p, n in net.initial_marking.items() if n > 0}
        self._relevant: dict[str, tuple[str, ...]] = {}
        self.start = _marking(Marking, self.marked.items())
        self._states = {self.start: self.start}
        self._pairs = {pair: pair for pair in self.start}
        self.succ: dict[tuple[Marking, str], Marking] = {}
        self.paths: dict[tuple[Marking, str | None], tuple | None] = {}
        self.searches: dict[tuple[str, tuple], tuple | None] = {}
        self._reads: dict[str, tuple[str, ...]] = {}

    def can_fire(self, counts: Mapping[str, int], t: str) -> bool:
        return counts.keys() >= self.needs[t]

    def enabled(self, counts: Mapping[str, int],
                among: Iterable[str] | None = None) -> list[str]:
        """Enabled transitions of ``among`` (default: all), in that order."""
        keys, needs = counts.keys(), self.needs
        return [t for t in (needs if among is None else among) if keys >= needs[t]]

    def fire(self, counts: Mapping[str, int] | Marking, t: str) -> dict[str, int] | None:
        """The counts after firing ``t`` from ``counts`` (a mapping or a
        :class:`Marking`), or ``None`` if ``t`` is not enabled there."""
        succ = dict(counts)
        return succ if self._fire(succ, t) else None

    def _fire(self, counts: dict[str, int], t: str) -> bool:
        """Fire ``t`` on ``counts`` in place; ``False``, changing nothing, if
        ``t`` is not enabled there."""
        if not counts.keys() >= self.needs[t]:
            return False
        remove_tokens(counts, self.pure_in[t])
        add_tokens(counts, self.pure_out[t])
        return True

    def successor(self, state: Marking, *path: str) -> Marking | None:
        """The state after firing ``path`` from ``state``, or ``None`` if a
        step is not enabled; each firing made is kept in ``succ``.  A new
        state is built from the kernel's shared ``(place, count)`` pairs, and
        a run of misses fires on one copy of the counts."""
        succ, states, intern, counts = self.succ, self._states, self._pairs.setdefault, None
        for t in path:
            if (after := succ.get((state, t))) is None:
                counts = dict(state) if counts is None else counts
                if not self._fire(counts, t):
                    return None
                after = _marking(Marking, map(intern, counts.items(), counts.items()))
                after = succ[state, t] = states.setdefault(after, after)
            else:
                counts = None
            state = after
        return state

    def reads(self, label: str) -> tuple[str, ...]:
        """The places a search for ``label`` tests, in net order: the inputs
        of its transitions and of the :meth:`relevant` ones it fires.  No
        other place's tokens can change the search's result."""
        self.relevant(label)
        return self._reads[label]

    def relevant(self, label: str) -> tuple[str, ...]:
        """The silent transitions backward-reachable, through silent
        transitions, from the input places of the transitions labeled
        ``label``, in net order.

        A silent firing outside this set puts no token where a transition
        of the set or the goal needs one, so dropping it from a path never
        disables a later firing: every shortest silent path to the goal
        uses these transitions only.
        """
        found = self._relevant.get(label)
        if found is None:
            places = {p for g in self.by_label.get(label, ()) for p in self.pre[g]}
            stack, feeding = list(places), set()
            while stack:
                for t in self.feeders[stack.pop()]:
                    if t not in feeding:
                        feeding.add(t)
                        fresh = [q for q in self.pre[t] if q not in places]
                        places.update(fresh)
                        stack += fresh
            found = self._relevant[label] = tuple(t for t in self.silent if t in feeding)
            self._reads[label] = tuple(p for p in self.places if p in places)
        return found

    def completion(self) -> Completion | None:
        """The net's exact completion distance, or ``None`` without a
        certificate that it is exact.

        A place with no output arcs costs 0; any other place costs the
        minimum, over its silent output transitions t, of ``(1 + the costs
        of t's output places) / |pre(t)|``, which shares a join's firing
        among its inputs (labeled outputs do not count; loops are resolved
        by iterating to a fixed point).  A marking's distance is the sum of
        its tokens' costs, and firing a silent t lowers it by ``drop(t) =
        cost(pre(t)) - cost(post(t))``.  Costs are integers in units of
        ``1/scale`` firings, ``scale`` being the product of the silent
        transitions' input counts, so comparisons are exact.

        The certificate is :func:`is_block_structured`: three classical
        reduction rules (twins, series fusion and self-loop elimination;
        Murata, Proc. IEEE 1989) reduce the net to its one marked place,
        which they do on every process tree's net.  From each reachable
        marking of such a net the distance is the fewest silent firings to
        a dead marking.  On any other net, or where a cost would not divide
        evenly, this returns ``None``.
        """
        try:
            return self._completion
        except AttributeError:  # first use
            self._completion = (_completion_distance(self)
                                if is_block_structured(self) else None)
            return self._completion


def _completion_distance(kernel: Kernel) -> Completion | None:
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

    return Completion(scale, cost, tuple(filter(lowers_by_one, silent)))


def is_block_structured(kernel: Kernel) -> bool:
    """True iff three classical reduction rules (Murata, "Petri nets:
    properties, analysis and applications", Proc. IEEE 1989) leave only the
    net's one marked place, holding one token.

    The rules run to a fixed point in net order, on copies of the pre- and
    postsets.  Twins: an unmarked node with inputs and outputs absorbs
    every other unmarked node with the same inputs and outputs (parallel
    places and transitions, so choices and parallel branches).  Series
    fusion: an unmarked place from transition ``a`` to transition ``b``, or
    a transition from place ``a`` to unmarked place ``b`` when ``a`` has no
    other output, folds ``b`` into ``a`` when ``b`` has no other input and
    shares no output with ``a``.  Self-loop: a transition whose only input
    and output is one place goes if that place has another output.  Every
    ``discovery.tree_to_net`` net reduces, whatever its labels.
    """
    pre = {n: set(v) for n, v in kernel.pre.items()}
    post = {n: set(v) for n, v in kernel.post.items()}
    marked = kernel.marked

    def drop(n: str) -> None:
        for m in pre.pop(n):
            post[m].discard(n)
        for m in post.pop(n):
            pre[m].discard(n)

    def reduce(n: str) -> bool:
        """Apply the first rule that fits node ``n``; True if one did."""
        ins, outs = pre[n], post[n]
        if n not in marked and ins and outs:
            twins = [m for m in post[next(iter(ins))]
                     if m != n and m not in marked and (pre[m], post[m]) == (ins, outs)]
            for m in twins:
                drop(m)
            if twins:
                return True
        if len(ins) != 1 or len(outs) != 1:
            return False
        (a,), (b,) = ins, outs
        is_transition = n in kernel.needs
        if a == b:  # a self-loop
            if not is_transition or len(post[a]) < 2:
                return False
            drop(n)
            return True
        if (n in marked or b in marked or pre[b] != {n} or post[a] & post[b]
                or (is_transition and post[a] != {n})):
            return False
        post[a] |= post[b]  # series fusion: b folds into a
        for m in post[b]:
            pre[m].add(a)
        drop(n)
        drop(b)
        return True

    changed = True
    while changed:
        changed = False
        for n in kernel.pre:  # every node, in net order
            if n in pre:
                changed |= reduce(n)
    return len(pre) == 1 and marked == dict.fromkeys(pre, 1)


def enabled(net: PetriNet, marking: Marking) -> list[str]:
    """Transitions whose every input place holds a token, in net order."""
    return net.kernel.enabled(dict(marking))


def fire(net: PetriNet, marking: Marking, transition: str) -> Marking:
    """Fire an enabled transition: consume one token per input place and
    produce one per output place; self-loop places keep their token."""
    after = net.kernel.successor(marking, transition)
    if after is None:
        empty = next(p for p in net.preset(transition) if p not in dict(marking))
        raise FiringError(
            f"transition {transition} not enabled: place {empty} holds no token")
    return after


def is_free_choice(net: PetriNet) -> bool:
    """True iff transitions sharing an input place have no further inputs."""
    for place in net.places:
        consumers = net.postset(place)
        if len(consumers) > 1:
            for t in consumers:
                if len(set(net.preset(t))) != 1:
                    return False
    return True


def reachability_graph(net: PetriNet, state_cap: int = 1_000_000) -> ReachabilityGraph:
    """Breadth-first exploration of the kernel's states by
    :meth:`Kernel.successor`, numbered by discovery order (transitions tried
    in net order), so two runs over the same net produce identical graphs.
    More than ``state_cap`` markings raise :class:`StateCapError` rather
    than truncating, which would silently drop behavior."""
    if state_cap < 1:
        raise ValueError("state_cap must be >= 1")
    kernel = net.kernel
    states = [kernel.start]
    number = {kernel.start: 0}
    edges: list[RgEdge] = []
    for i, state in enumerate(states):  # visits states appended below: BFS
        for t in kernel.enabled(dict(state)):
            after = kernel.successor(state, t)
            j = number.get(after)
            if j is None:
                if len(states) >= state_cap:
                    raise StateCapError(
                        f"more than {state_cap} reachable markings; "
                        "the net may be unbounded")
                j = number[after] = len(states)
                states.append(after)
            edges.append(RgEdge(i, t, net.label(t), j))
    has_out = {e.src for e in edges}
    ends = tuple(i for i in range(len(states)) if i not in has_out)
    return ReachabilityGraph(tuple(states), tuple(edges), ends)


def net_to_doc(net: PetriNet) -> dict[str, object]:
    """The JSON document of the net, which the stochastic net's extends."""
    return {
        "places": list(net.places),
        "transitions": [{"id": t, "label": net.label(t)} for t in net.transitions],
        "arcs": [list(a) for a in net.arcs],
        "initial_marking": {p: int(n) for p, n in sorted(net.initial_marking.items())},
    }


def json_text(doc: object) -> str:
    """The package's canonical JSON text: indent 2, sorted keys, a trailing
    newline; every JSON artifact is written in it."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def net_to_json(net: PetriNet) -> str:
    """Canonical JSON interchange form (stable across runs)."""
    return json_text(net_to_doc(net))


def net_from_doc(doc: Mapping) -> PetriNet:
    """The net of a :func:`net_to_doc` document; other keys are ignored."""
    return PetriNet(
        places=tuple(doc["places"]),
        transitions=tuple(t["id"] for t in doc["transitions"]),
        arcs=tuple((a, b) for a, b in doc["arcs"]),
        labels={t["id"]: t["label"] for t in doc["transitions"]},
        initial_marking={p: int(n) for p, n in doc["initial_marking"].items()},
    )


def net_from_json(text: str | IO[str]) -> PetriNet:
    return net_from_doc(json.loads(text if isinstance(text, str) else text.read()))
