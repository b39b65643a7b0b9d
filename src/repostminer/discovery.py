"""Inductive process discovery over repost logs.

Recursively partitions a noise-filtered directly-follows graph into exclusive
choice, sequence, parallel and loop blocks, yielding a process tree that is
then compiled into a free-choice workflow net.  When no partition applies the
recursion falls through to a "flower" loop that admits any interleaving of
the remaining activities.
"""

from __future__ import annotations

from dataclasses import dataclass

from .eventlog import Dfg, EventLog, dfg_from_sequences
from .petri import PetriNet

Sequence = tuple[str, ...]

ACTIVITY = "activity"
TAU = "tau"
SEQ = "seq"
XOR = "xor"
PAR = "par"
LOOP = "loop"

_OPERATOR_TOKENS = {SEQ: "->", XOR: "X", PAR: "/\\", LOOP: "*"}


@dataclass(frozen=True)
class ProcessTree:
    """Operator node over ordered children, or a single activity/tau leaf."""

    kind: str
    label: str | None = None
    children: tuple["ProcessTree", ...] = ()

    def __post_init__(self) -> None:
        if self.kind == ACTIVITY:
            if self.label is None or self.children:
                raise ValueError("activity leaf needs a label and no children")
        elif self.kind == TAU:
            if self.label is not None or self.children:
                raise ValueError("tau leaf carries nothing")
        elif self.kind in (SEQ, XOR, PAR, LOOP):
            if self.label is not None or len(self.children) < 2:
                raise ValueError(f"{self.kind} node needs >= 2 children")
        else:
            raise ValueError(f"unknown node kind {self.kind!r}")

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


@dataclass(frozen=True)
class Cut:
    """A partition of the alphabet with the operator that explains it."""

    kind: str
    partition: tuple[frozenset[str], ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for block in self.partition:
            if not block or seen & block:
                raise ValueError("cut blocks must be disjoint and nonempty")
            seen |= block


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


def _undirected_components(nodes: list[str],
                           adjacency: dict[str, set[str]]) -> list[frozenset[str]]:
    seen: set[str] = set()
    components = []
    for start in nodes:
        if start in seen:
            continue
        stack = [start]
        comp = set()
        while stack:
            node = stack.pop()
            if node in comp:
                continue
            comp.add(node)
            stack.extend(adjacency.get(node, ()) - comp)
        seen |= comp
        components.append(frozenset(comp))
    return sorted(components, key=min)


def _strongly_connected(nodes: list[str],
                        succ: dict[str, list[str]]) -> list[frozenset[str]]:
    """Iterative Tarjan; components returned in deterministic order."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[frozenset[str]] = []
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
    return sorted(components, key=min)


def _xor_cut(dfg: Dfg, alphabet: set[str]) -> Cut | None:
    adjacency: dict[str, set[str]] = {a: set() for a in alphabet}
    for a, b in dfg.edge_counts:
        if a in alphabet and b in alphabet and a != b:
            adjacency[a].add(b)
            adjacency[b].add(a)
    components = _undirected_components(sorted(alphabet), adjacency)
    if len(components) < 2:
        return None
    return Cut(XOR, tuple(components))


def _sequence_cut(dfg: Dfg, alphabet: set[str]) -> Cut | None:
    succ: dict[str, list[str]] = {a: [] for a in alphabet}
    for a, b in sorted(dfg.edge_counts):
        if a in alphabet and b in alphabet and a != b:
            succ[a].append(b)
    sccs = _strongly_connected(sorted(alphabet), succ)
    if len(sccs) < 2:
        return None

    comp_of = {a: i for i, comp in enumerate(sccs) for a in comp}
    comp_succ: dict[int, set[int]] = {i: set() for i in range(len(sccs))}
    for a in sorted(alphabet):
        for b in succ[a]:
            if comp_of[a] != comp_of[b]:
                comp_succ[comp_of[a]].add(comp_of[b])

    reach: dict[int, set[int]] = {}
    for i in sorted(comp_succ, key=lambda c: min(sccs[c])):
        seen: set[int] = set()
        stack = list(comp_succ[i])
        while stack:
            j = stack.pop()
            if j in seen:
                continue
            seen.add(j)
            stack.extend(comp_succ[j] - seen)
        reach[i] = seen

    # Pairwise unreachable components cannot be ordered: merge them.
    parent = list(range(len(sccs)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(len(sccs)):
        for j in range(i + 1, len(sccs)):
            if j not in reach[i] and i not in reach[j]:
                parent[find(i)] = find(j)

    groups: dict[int, set[str]] = {}
    for i, comp in enumerate(sccs):
        groups.setdefault(find(i), set()).update(comp)
    if len(groups) < 2:
        return None

    # Between merged groups exactly one reach direction survives, so sorting
    # by how many other groups each one reaches yields the unique order.
    def reached_groups(root: int) -> int:
        members = [i for i in range(len(sccs)) if find(i) == root]
        hit = {find(j) for i in members for j in reach[i]} - {root}
        return len(hit)

    ordered = sorted(groups, key=lambda r: (-reached_groups(r), min(groups[r])))
    position = {a: rank for rank, r in enumerate(ordered) for a in groups[r]}
    for a in alphabet:
        for b in succ[a]:
            if position[a] > position[b]:
                return None  # a backward edge survived: not a sequence
    return Cut(SEQ, tuple(frozenset(groups[r]) for r in ordered))


def _parallel_cut(dfg: Dfg, alphabet: set[str]) -> Cut | None:
    edges = {(a, b) for a, b in dfg.edge_counts if a in alphabet and b in alphabet}
    adjacency: dict[str, set[str]] = {a: set() for a in alphabet}
    items = sorted(alphabet)
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            if not ((a, b) in edges and (b, a) in edges):
                adjacency[a].add(b)
                adjacency[b].add(a)
    components = _undirected_components(items, adjacency)
    if len(components) < 2:
        return None
    starts = set(dfg.start_counts) & alphabet
    ends = set(dfg.end_counts) & alphabet
    for comp in components:
        if not (comp & starts) or not (comp & ends):
            return None
    return Cut(PAR, tuple(components))


def _loop_cut(dfg: Dfg, alphabet: set[str]) -> Cut | None:
    starts = set(dfg.start_counts) & alphabet
    ends = set(dfg.end_counts) & alphabet
    boundary = starts | ends
    if not boundary or boundary == alphabet:
        return None
    interior = alphabet - boundary
    adjacency: dict[str, set[str]] = {a: set() for a in interior}
    for a, b in dfg.edge_counts:
        if a in interior and b in interior and a != b:
            adjacency[a].add(b)
            adjacency[b].add(a)
    candidates = _undirected_components(sorted(interior), adjacency)

    redos: list[frozenset[str]] = []
    for comp in candidates:
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
    if not seqs:
        return tau()
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


def tree_to_net(tree: ProcessTree) -> PetriNet:
    """Compile a process tree into a free-choice workflow net.

    Each node is wired between a source and a sink place; parallel and loop
    operators introduce silent routing transitions.  The result has a single
    marked source place and a single sink place.
    """
    b = _NetBuilder()
    source = b.place()
    sink = b.place()

    def build(node: ProcessTree, src: str, snk: str) -> None:
        if node.kind in (ACTIVITY, TAU):
            t = b.transition(node.label)
            b.arc(src, t)
            b.arc(t, snk)
        elif node.kind == SEQ:
            cur = src
            for child in node.children[:-1]:
                nxt = b.place()
                build(child, cur, nxt)
                cur = nxt
            build(node.children[-1], cur, snk)
        elif node.kind == XOR:
            for child in node.children:
                build(child, src, snk)
        elif node.kind == PAR:
            split = b.transition(None)
            join = b.transition(None)
            b.arc(src, split)
            b.arc(join, snk)
            for child in node.children:
                entry, exit_ = b.place(), b.place()
                b.arc(split, entry)
                b.arc(exit_, join)
                build(child, entry, exit_)
        elif node.kind == LOOP:
            enter = b.transition(None)
            leave = b.transition(None)
            head, tail = b.place(), b.place()
            b.arc(src, enter)
            b.arc(enter, head)
            b.arc(tail, leave)
            b.arc(leave, snk)
            build(node.children[0], head, tail)
            for redo in node.children[1:]:
                build(redo, tail, head)
        else:  # pragma: no cover - ProcessTree validates kinds
            raise ValueError(node.kind)

    build(tree, source, sink)
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
    alive_places = set(net.places)
    alive_transitions = set(net.transitions)
    marked = {p for p, n in net.initial_marking.items() if n > 0}

    def drop_place(p: str) -> None:
        for s in pre[p]:
            post[s].remove(p)
        for d in post[p]:
            pre[d].remove(p)
        alive_places.discard(p)

    def drop_transition(t: str) -> None:
        for s in pre[t]:
            post[s].remove(t)
        for d in post[t]:
            pre[d].remove(t)
        alive_transitions.discard(t)

    changed = True
    while changed:
        changed = False

        for t in net.transitions:
            if t not in alive_transitions or net.labels[t] is not None:
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
            drop_transition(t)
            drop_place(p)
            for q in downstream:
                post[upstream].append(q)
                pre[q].append(upstream)
            changed = True

        for p in net.places:
            if p in alive_places and p not in marked and not post[p]:
                drop_place(p)
                changed = True

        for t in net.transitions:
            if t in alive_transitions and net.labels[t] is None and not post[t]:
                drop_transition(t)
                changed = True

    places = tuple(p for p in net.places if p in alive_places)
    transitions = tuple(t for t in net.transitions if t in alive_transitions)
    arcs = tuple((node, dst) for node in places + transitions
                 for dst in post[node])
    labels = {t: net.labels[t] for t in transitions}
    marking = {p: n for p, n in net.initial_marking.items() if p in alive_places}
    return PetriNet(places, transitions, arcs, labels, marking)
