"""Inductive process discovery over repost logs.

Recursively partitions a noise-filtered directly-follows graph into exclusive
choice, sequence, parallel and loop blocks, yielding a process tree that is
then compiled into a free-choice workflow net.  When no partition applies the
recursion falls through to a "flower" loop that admits any interleaving of
the remaining activities.  One undirected components routine forms the
blocks of every cut; the sequence cut first orders the DFG's strongly
connected components by reachability.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, TypeVar

from .eventlog import Dfg, EventLog, dfg_from_sequences
from .petri import PetriNet
from .record import Record

Sequence = tuple[str, ...]
Node = TypeVar("Node")

ACTIVITY = "activity"
TAU = "tau"
SEQ = "seq"
XOR = "xor"
PAR = "par"
LOOP = "loop"

_OPERATOR_TOKENS = {SEQ: "->", XOR: "X", PAR: "/\\", LOOP: "*"}


class ProcessTree(Record):
    """Operator node over ordered children, or a single activity/tau leaf."""

    __slots__ = _fields = ("kind", "label", "children")

    def __init__(self, kind: str, label: str | None = None,
                 children: tuple[ProcessTree, ...] = ()) -> None:
        if kind == ACTIVITY:
            if label is None or children:
                raise ValueError("activity leaf needs a label and no children")
        elif kind == TAU:
            if label is not None or children:
                raise ValueError("tau leaf carries nothing")
        elif kind in (SEQ, XOR, PAR, LOOP):
            if label is not None or len(children) < 2:
                raise ValueError(f"{kind} node needs >= 2 children")
        else:
            raise ValueError(f"unknown node kind {kind!r}")
        self.kind = kind
        self.label = label
        self.children = children

    def __str__(self) -> str:
        return format_tree(self)


def activity(label: str) -> ProcessTree:
    return ProcessTree(ACTIVITY, label)


def tau() -> ProcessTree:
    return ProcessTree(TAU)


def seq(*children: ProcessTree) -> ProcessTree:
    return ProcessTree(SEQ, children=children)


def xor(*children: ProcessTree) -> ProcessTree:
    return ProcessTree(XOR, children=children)


def par(*children: ProcessTree) -> ProcessTree:
    return ProcessTree(PAR, children=children)


def loop(body: ProcessTree, *redo: ProcessTree) -> ProcessTree:
    return ProcessTree(LOOP, children=(body,) + redo)


def format_tree(tree: ProcessTree) -> str:
    """Parenthesized text form, e.g. ``->(A, /\\(B, C))``; tau prints ``tau``."""
    if tree.kind == ACTIVITY:
        return tree.label  # type: ignore[return-value]
    if tree.kind == TAU:
        return "tau"
    inner = ", ".join(format_tree(c) for c in tree.children)
    return f"{_OPERATOR_TOKENS[tree.kind]}({inner})"


class Cut(Record):
    """A partition of the alphabet with the operator that explains it."""

    __slots__ = _fields = ("kind", "partition")

    def __init__(self, kind: str, partition: tuple[frozenset[str], ...]) -> None:
        seen: set[str] = set()
        for block in partition:
            if not block or seen & block:
                raise ValueError("cut blocks must be disjoint and nonempty")
            seen |= block
        self.kind = kind
        self.partition = partition


def filter_dfg(dfg: Dfg, threshold: float) -> Dfg:
    """Drop, per source activity, outgoing edges rarer than ``threshold``
    times that activity's strongest outgoing edge; start/end counts are
    filtered the same way against their own maxima."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    strongest: dict[str, int] = {}
    for (a, _), n in dfg.edge_counts.items():
        strongest[a] = max(strongest.get(a, 0), n)
    edges = {(a, b): n for (a, b), n in dfg.edge_counts.items()
             if n >= threshold * strongest[a]}

    def keep(counts: dict[str, int]) -> dict[str, int]:
        if not counts:
            return {}
        top = max(counts.values())
        return {a: n for a, n in counts.items() if n >= threshold * top}

    return Dfg(edges, keep(dfg.start_counts), keep(dfg.end_counts))


def _undirected_components(nodes: list[Node], linked: Callable[[Node, set[Node]], set[Node]]
                           ) -> list[frozenset[Node]]:
    """Components of a symmetric relation, ordered by least member; each node
    is asked once for ``linked(node, left)``, its neighbours among the nodes
    ``left`` unvisited, so a relation given by its complement is O(V + E)."""
    left = set(nodes)
    components = []
    for start in nodes:
        if start not in left:
            continue
        left.discard(start)
        comp, stack = [start], [start]
        while stack:
            found = linked(stack.pop(), left)
            left -= found
            comp += found
            stack += found
        components.append(frozenset(comp))
    return sorted(components, key=min)


def _linked_components(dfg: Dfg, nodes: set[str]) -> list[frozenset[str]]:
    """Components of ``nodes`` joined by a DFG edge in either direction."""
    adjacency: dict[str, set[str]] = {a: set() for a in nodes}
    for a, b in dfg.edge_counts:
        if a in nodes and b in nodes and a != b:
            adjacency[a].add(b)
            adjacency[b].add(a)
    return _undirected_components(sorted(nodes), lambda a, left: adjacency[a] & left)


def strongly_connected(nodes: Iterable[Node],
                       succ: Mapping[Node, Iterable[Node]]) -> list[frozenset[Node]]:
    """Iterative Tarjan; components returned in the order Tarjan closes
    them, so each comes after every component it reaches.  A node missing
    from ``succ`` has no successors."""
    index: dict[Node, int] = {}
    low: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    components: list[frozenset[Node]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succ.get(root, [])))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(succ.get(nxt, []))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.add(member)
                    if member == node:
                        break
                components.append(frozenset(comp))
    return components


def _xor_cut(dfg: Dfg, alphabet: set[str]) -> Cut | None:
    components = _linked_components(dfg, alphabet)
    if len(components) < 2:
        return None
    return Cut(XOR, tuple(components))


def _sequence_cut(dfg: Dfg, alphabet: set[str]) -> Cut | None:
    succ: dict[str, list[str]] = {a: [] for a in alphabet}
    for a, b in dfg.edge_counts:
        if a in alphabet and b in alphabet and a != b:
            succ[a].append(b)
    sccs = strongly_connected(sorted(alphabet), succ)
    if len(sccs) < 2:
        return None

    # Tarjan closes a component after every component it reaches, so one
    # pass in that order builds each component's reach set.
    comp_of = {a: i for i, comp in enumerate(sccs) for a in comp}
    reach: list[set[int]] = []
    for i, comp in enumerate(sccs):
        reached: set[int] = set()
        for j in {comp_of[b] for a in comp for b in succ[a]} - {i}:
            reached.add(j)
            reached |= reach[j]
        reach.append(reached)

    # Pairwise unreachable components cannot be ordered: merge them.  The
    # merged blocks are totally ordered (Gallai 1967), every edge between
    # two of them runs forward, and the first reaches every other block.
    groups = _undirected_components(
        list(range(len(sccs))),
        lambda i, left: {j for j in left if j not in reach[i] and i not in reach[j]})
    if len(groups) < 2:
        return None
    group_of = {i: g for g, group in enumerate(groups) for i in group}
    reached_groups = [len({group_of[j] for i in group for j in reach[i]} - {g})
                      for g, group in enumerate(groups)]
    ordered = sorted(range(len(groups)), key=lambda g: -reached_groups[g])
    return Cut(SEQ, tuple(frozenset().union(*(sccs[i] for i in groups[g]))
                          for g in ordered))


def _parallel_cut(dfg: Dfg, alphabet: set[str]) -> Cut | None:
    # Blocks are the components of the pairs that are not two-way.
    two_way: dict[str, set[str]] = {a: set() for a in alphabet}
    for a, b in dfg.edge_counts:
        if a in alphabet and b in alphabet and (b, a) in dfg.edge_counts:
            two_way[a].add(b)
    components = _undirected_components(sorted(alphabet),
                                        lambda a, left: left - two_way[a])
    if len(components) < 2 or any(comp.isdisjoint(dfg.start_counts)
                                  or comp.isdisjoint(dfg.end_counts) for comp in components):
        return None  # every block must hold a start and an end
    return Cut(PAR, tuple(components))


def _loop_cut(dfg: Dfg, alphabet: set[str]) -> Cut | None:
    starts = set(dfg.start_counts) & alphabet
    ends = set(dfg.end_counts) & alphabet
    boundary = starts | ends
    if not boundary or boundary == alphabet:
        return None
    redos: list[frozenset[str]] = []
    for comp in _linked_components(dfg, alphabet - boundary):
        valid = True
        for a, b in dfg.edge_counts:
            if a not in alphabet or b not in alphabet:
                continue
            if b in comp and a not in comp and a not in ends:
                valid = False  # entry into the redo must come from an end
                break
            if a in comp and b not in comp and b not in starts:
                valid = False  # exit from the redo must land on a start
                break
        if valid:
            redos.append(comp)
    if not redos:
        return None
    body = frozenset(alphabet - set().union(*redos))
    return Cut(LOOP, (body,) + tuple(redos))


def find_cut(dfg: Dfg, alphabet: set[str]) -> Cut | None:
    """Try xor, sequence, parallel then loop partitions; first hit wins."""
    if len(alphabet) < 2:
        return None
    for attempt in (_xor_cut, _sequence_cut, _parallel_cut, _loop_cut):
        cut = attempt(dfg, alphabet)
        if cut is not None:
            return cut
    return None


def _split_xor(seqs: list[Sequence], cut: Cut) -> list[list[Sequence]]:
    block_of = {a: i for i, block in enumerate(cut.partition) for a in block}
    sublogs: list[list[Sequence]] = [[] for _ in cut.partition]
    for s in seqs:
        votes = [0] * len(cut.partition)
        for a in s:
            votes[block_of[a]] += 1
        winner = max(range(len(votes)), key=lambda i: (votes[i], -i))
        sublogs[winner].append(tuple(a for a in s if block_of[a] == winner))
    return sublogs


def _split_projection(seqs: list[Sequence], cut: Cut) -> list[list[Sequence]]:
    sublogs: list[list[Sequence]] = [[] for _ in cut.partition]
    for s in seqs:
        for i, block in enumerate(cut.partition):
            sublogs[i].append(tuple(a for a in s if a in block))
    return sublogs


def _split_loop(seqs: list[Sequence], cut: Cut) -> list[list[Sequence]]:
    block_of = {a: i for i, block in enumerate(cut.partition) for a in block}
    sublogs: list[list[Sequence]] = [[] for _ in cut.partition]
    for s in seqs:
        if not s:
            sublogs[0].append(())
            continue
        current = block_of[s[0]]
        segment: list[str] = []
        for a in s:
            b = block_of[a]
            if b != current:
                sublogs[current].append(tuple(segment))
                current, segment = b, []
            segment.append(a)
        sublogs[current].append(tuple(segment))
    return sublogs


def _discover(seqs: list[Sequence], threshold: float) -> ProcessTree:
    nonempty = [s for s in seqs if s]
    if not nonempty:
        return tau()
    if len(nonempty) < len(seqs):
        return xor(tau(), _discover(nonempty, threshold))
    seqs = nonempty

    alphabet = {a for s in seqs for a in s}
    if len(alphabet) == 1:
        single = next(iter(alphabet))
        if all(len(s) == 1 for s in seqs):
            return activity(single)
        return loop(activity(single), tau())

    dfg = filter_dfg(dfg_from_sequences(seqs), threshold)
    cut = find_cut(dfg, alphabet)
    if cut is None:
        return loop(tau(), *[activity(a) for a in sorted(alphabet)])

    splitter = {XOR: _split_xor, SEQ: _split_projection,
                PAR: _split_projection, LOOP: _split_loop}[cut.kind]
    children = tuple(_discover(sub, threshold)
                     for sub in splitter(seqs, cut))
    if cut.kind == LOOP:
        return loop(children[0], *children[1:])
    return ProcessTree(cut.kind, children=children)


def discover_tree(log: EventLog, threshold: float = 0.2) -> ProcessTree:
    """Discover a process tree from a (preprocessed) event log.

    ``threshold`` is the per-activity relative noise cutoff applied to the
    directly-follows graph at every recursion level; 0 keeps all behavior.
    """
    return _discover(log.sequences(), threshold)


class _NetBuilder:
    def __init__(self) -> None:
        self.places: list[str] = []
        self.transitions: list[str] = []
        self.labels: dict[str, str | None] = {}
        self.arcs: list[tuple[str, str]] = []

    def place(self) -> str:
        p = f"p{len(self.places)}"
        self.places.append(p)
        return p

    def transition(self, label: str | None) -> str:
        t = f"t{len(self.transitions)}"
        self.transitions.append(t)
        self.labels[t] = label
        return t

    def arc(self, src: str, dst: str) -> None:
        self.arcs.append((src, dst))

    def build(self, node: ProcessTree, src: str, snk: str) -> None:
        """Wire ``node`` from place ``src`` to ``snk``; a method, since a nested
        closure would keep the whole builder alive as cyclic garbage."""
        if node.kind in (ACTIVITY, TAU):
            t = self.transition(node.label)
            self.arc(src, t)
            self.arc(t, snk)
        elif node.kind == SEQ:
            cur = src
            for child in node.children[:-1]:
                nxt = self.place()
                self.build(child, cur, nxt)
                cur = nxt
            self.build(node.children[-1], cur, snk)
        elif node.kind == XOR:
            for child in node.children:
                self.build(child, src, snk)
        elif node.kind == PAR:
            split, join = self.transition(None), self.transition(None)
            self.arc(src, split)
            self.arc(join, snk)
            for child in node.children:
                entry, exit_ = self.place(), self.place()
                self.arc(split, entry)
                self.arc(exit_, join)
                self.build(child, entry, exit_)
        elif node.kind == LOOP:
            enter, leave = self.transition(None), self.transition(None)
            head, tail = self.place(), self.place()
            self.arc(src, enter)
            self.arc(enter, head)
            self.arc(tail, leave)
            self.arc(leave, snk)
            self.build(node.children[0], head, tail)
            for redo in node.children[1:]:
                self.build(redo, tail, head)
        else:  # pragma: no cover - ProcessTree validates kinds
            raise ValueError(node.kind)


def tree_to_net(tree: ProcessTree) -> PetriNet:
    """Compile a process tree into a free-choice workflow net.

    Each node is wired between a source and a sink place; parallel and loop
    operators introduce silent routing transitions.  The result has a single
    marked source place and a single sink place.
    """
    b = _NetBuilder()
    source, sink = b.place(), b.place()
    b.build(tree, source, sink)
    return PetriNet(tuple(b.places), tuple(b.transitions), tuple(b.arcs),
                    b.labels, {source: 1})


def reduce_net(net: PetriNet) -> PetriNet:
    """Fuse redundant silent plumbing for display and structural reporting.

    Applies, to a fixed point: series fusion of a silent transition behind a
    private intermediate place, removal of unmarked dead-end places, and
    removal of silent transitions left without outputs.  Labeled transitions
    always survive and the result stays free-choice, but completion plumbing
    (final places, terminal silent joins and silent skip-to-end branches) is
    trimmed away, so this is a structural display form only.  Analysis
    (replay, enrichment, entropy) always runs on the unreduced net.
    """
    pre = {n: list(net.preset(n)) for n in net.places + net.transitions}
    post = {n: list(net.postset(n)) for n in net.places + net.transitions}
    alive = set(net.places + net.transitions)
    marked = {p for p, n in net.initial_marking.items() if n > 0}

    def drop(node: str) -> None:
        for s in pre[node]:
            post[s].remove(node)
        for d in post[node]:
            pre[d].remove(node)
        alive.discard(node)

    changed = True
    while changed:
        changed = False

        for t in net.transitions:
            if t not in alive or net.labels[t] is not None:
                continue
            if len(pre[t]) != 1:
                continue
            p = pre[t][0]
            if p in marked or post[p] != [t] or len(pre[p]) != 1:
                continue
            upstream = pre[p][0]
            if upstream == t or set(post[t]) & set(post[upstream]):
                continue  # self-chain, or fusing would duplicate an arc
            downstream = list(post[t])
            drop(t)
            drop(p)
            for q in downstream:
                post[upstream].append(q)
                pre[q].append(upstream)
            changed = True

        for p in net.places:
            if p in alive and p not in marked and not post[p]:
                drop(p)
                changed = True

        for t in net.transitions:
            if t in alive and net.labels[t] is None and not post[t]:
                drop(t)
                changed = True

    places = tuple(p for p in net.places if p in alive)
    transitions = tuple(t for t in net.transitions if t in alive)
    arcs = tuple((node, dst) for node in places + transitions
                 for dst in post[node])
    labels = {t: net.labels[t] for t in transitions}
    marking = {p: n for p, n in net.initial_marking.items() if p in alive}
    return PetriNet(places, transitions, arcs, labels, marking)
