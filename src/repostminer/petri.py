"""Labeled Petri nets: firing semantics, free-choice check, reachability.

Transitions carry either an activity label (an account id) or ``None`` for
silent transitions.  Markings are sparse and hashable so reachability graphs
can be explored with plain dict lookups.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Iterable, Mapping, NamedTuple


class NetDefinitionError(ValueError):
    """The net violates a structural invariant (duplicate arcs, bad refs...)."""


class FiringError(ValueError):
    """A transition was fired while not enabled."""


class StateCapError(RuntimeError):
    """Reachability exploration exceeded the configured state cap."""


@dataclass(frozen=True)
class Marking:
    """Sparse token assignment: sorted (place, count) pairs, counts > 0."""

    tokens: tuple[tuple[str, int], ...] = ()

    @classmethod
    def of(cls, counts: Mapping[str, int]) -> "Marking":
        items = []
        for place, n in counts.items():
            if n < 0:
                raise ValueError(f"negative token count at {place}")
            if n > 0:
                items.append((place, n))
        return cls(tuple(sorted(items)))

    def count(self, place: str) -> int:
        for p, n in self.tokens:
            if p == place:
                return n
        return 0

    def as_dict(self) -> dict[str, int]:
        return {p: n for p, n in self.tokens if n > 0}

    def total(self) -> int:
        return sum(n for _, n in self.tokens)

    def __str__(self) -> str:
        return "{" + ", ".join(f"{p}:{n}" for p, n in self.tokens) + "}"


@dataclass(frozen=True)
class PetriNet:
    """Places, transitions, plain arcs, labels and an initial marking.

    ``labels`` maps every transition id to its label or ``None`` for silent.
    Arcs connect places to transitions or transitions to places, once each.
    ``kernel`` is the net compiled for firing, built once with the net; it
    also holds the pre- and postsets.
    """

    places: tuple[str, ...]
    transitions: tuple[str, ...]
    arcs: tuple[tuple[str, str], ...]
    labels: Mapping[str, str | None]
    initial_marking: Mapping[str, int] = field(default_factory=dict)
    kernel: Kernel = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pset, tset = set(self.places), set(self.transitions)
        if len(pset) != len(self.places) or len(tset) != len(self.transitions):
            raise NetDefinitionError("duplicate node ids")
        if pset & tset:
            raise NetDefinitionError(f"places and transitions overlap: {pset & tset}")
        if set(self.labels) != tset:
            raise NetDefinitionError("labels must cover exactly the transitions")
        if len(set(self.arcs)) != len(self.arcs):
            raise NetDefinitionError("duplicate arcs")
        for src, dst in self.arcs:
            if not ((src in pset and dst in tset) or (src in tset and dst in pset)):
                raise NetDefinitionError(f"arc ({src}, {dst}) is not place<->transition")
        for place, n in self.initial_marking.items():
            if place not in pset:
                raise NetDefinitionError(f"marked place {place} does not exist")
            if n < 0:
                raise NetDefinitionError(f"negative initial tokens at {place}")
        object.__setattr__(self, "kernel", Kernel(self))

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
        return Marking.of(self.initial_marking)

    def node_count(self) -> int:
        return len(self.places) + len(self.transitions)


class RgEdge(NamedTuple):
    src: int
    transition: str
    label: str | None
    dst: int


@dataclass(frozen=True)
class ReachabilityGraph:
    """Markings reachable from the initial marking; state 0 is initial."""

    states: tuple[Marking, ...]
    edges: tuple[RgEdge, ...]
    end_states: tuple[int, ...]

    def successors(self) -> dict[int, list[RgEdge]]:
        out: dict[int, list[RgEdge]] = {i: [] for i in range(len(self.states))}
        for e in self.edges:
            out[e.src].append(e)
        return out


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


class Kernel:
    """A net compiled for firing: the one implementation of its semantics.

    Token counts are dicts holding only positive counts.  A transition is
    enabled when each input place holds a token; firing it takes one token
    from each pure input place and puts one on each pure output place, so a
    self-loop place keeps its token.  ``silent`` and the tuples of
    ``by_label`` keep net order, the tie-break order of every search.
    """

    __slots__ = ("pre", "post", "pure_in", "pure_out", "needs", "silent", "by_label")

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

    def can_fire(self, counts: Mapping[str, int], t: str) -> bool:
        return counts.keys() >= self.needs[t]

    def enabled(self, counts: Mapping[str, int],
                among: Iterable[str] | None = None) -> list[str]:
        """Enabled transitions of ``among`` (default: all), in that order."""
        keys, needs = counts.keys(), self.needs
        return [t for t in (needs if among is None else among) if keys >= needs[t]]

    def fire(self, counts: Mapping[str, int], t: str) -> dict[str, int]:
        """The counts after firing ``t``, which the caller knows is enabled."""
        succ = dict(counts)
        remove_tokens(succ, self.pure_in[t])
        add_tokens(succ, self.pure_out[t])
        return succ


def enabled(net: PetriNet, marking: Marking) -> list[str]:
    """Transitions whose every input place holds a token, in net order."""
    return net.kernel.enabled(marking.as_dict())


def fire(net: PetriNet, marking: Marking, transition: str) -> Marking:
    """Fire an enabled transition: consume one token per input place and
    produce one per output place; self-loop places keep their token."""
    counts = marking.as_dict()
    if not net.kernel.can_fire(counts, transition):
        empty = next(p for p in net.preset(transition) if p not in counts)
        raise FiringError(
            f"transition {transition} not enabled: place {empty} holds no token")
    return Marking.of(net.kernel.fire(counts, transition))


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
    """Breadth-first marking exploration with deterministic state numbering.

    States are numbered by discovery order (transitions tried in net order),
    so two runs over the same net produce identical graphs.  Exceeding
    ``state_cap`` distinct markings raises :class:`StateCapError` rather than
    truncating, because downstream entropy needs the complete graph.
    """
    if state_cap < 1:
        raise ValueError("state_cap must be >= 1")
    kernel = net.kernel
    states = [net.initial()]
    index = {states[0].tokens: 0}
    edges: list[RgEdge] = []
    for i, state in enumerate(states):  # visits states appended below: BFS
        counts = dict(state.tokens)
        for t in kernel.enabled(counts):
            key = tuple(sorted(kernel.fire(counts, t).items()))
            j = index.get(key)
            if j is None:
                if len(states) >= state_cap:
                    raise StateCapError(
                        f"more than {state_cap} reachable markings; "
                        "the net may be unbounded")
                j = index[key] = len(states)
                states.append(Marking(key))
            edges.append(RgEdge(i, t, net.label(t), j))
    has_out = {e.src for e in edges}
    ends = tuple(i for i in range(len(states)) if i not in has_out)
    return ReachabilityGraph(tuple(states), tuple(edges), ends)


def tau_free_language(net: PetriNet, state_cap: int = 100_000) -> frozenset[tuple[str, ...]]:
    """Label sequences (silent steps dropped) along maximal firing paths.

    Only defined for nets whose reachability graph is acyclic; a cycle makes
    the language infinite and raises ``ValueError``.
    """
    rg = reachability_graph(net, state_cap)
    succ = rg.successors()
    memo: dict[int, frozenset[tuple[str, ...]]] = {}
    on_path: set[int] = set()

    def visit(i: int) -> frozenset[tuple[str, ...]]:
        if i in memo:
            return memo[i]
        if i in on_path:
            raise ValueError("reachability graph is cyclic: language is infinite")
        if not succ[i]:
            memo[i] = frozenset({()})
            return memo[i]
        on_path.add(i)
        out: set[tuple[str, ...]] = set()
        for e in succ[i]:
            for suffix in visit(e.dst):
                out.add(suffix if e.label is None else (e.label,) + suffix)
        on_path.discard(i)
        memo[i] = frozenset(out)
        return memo[i]

    return visit(0)


def net_to_json(net: PetriNet) -> str:
    """Canonical JSON interchange form (stable across runs)."""
    doc = {
        "places": list(net.places),
        "transitions": [{"id": t, "label": net.label(t)} for t in net.transitions],
        "arcs": [list(a) for a in net.arcs],
        "initial_marking": {p: int(n) for p, n in sorted(net.initial_marking.items())},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def net_from_json(text: str | IO[str]) -> PetriNet:
    doc = json.loads(text if isinstance(text, str) else text.read())
    return PetriNet(
        places=tuple(doc["places"]),
        transitions=tuple(t["id"] for t in doc["transitions"]),
        arcs=tuple((a, b) for a, b in doc["arcs"]),
        labels={t["id"]: t["label"] for t in doc["transitions"]},
        initial_marking={p: int(n) for p, n in doc["initial_marking"].items()},
    )
