"""Earlier constructions of the sequence and parallel cuts, as references.

``discovery._sequence_cut`` now builds reach sets in one pass over the order
in which Tarjan closes components and merges unordered components with the
undirected components routine.  This copy keeps the earlier construction,
which sorts every edge, searches from each component, merges with a
union-find and ends with a scan for backward edges, as a reference for it.
That scan cannot fire, since the blocks of a partial order's
incomparability graph are totally ordered (Gallai 1967); it returns
:data:`BACKWARD_EDGE` instead of ``None`` so that a test can tell if it did.

``discovery._parallel_cut`` now finds the components of the complement of
the two-way pairs without building it.  :func:`parallel_cut` keeps the
earlier construction, which joins every pair of activities that is not
two-way and takes the components of that all-pairs graph.
"""

from __future__ import annotations

from typing import Iterable, Mapping, TypeVar

from repostminer.discovery import PAR, SEQ, Cut, _loop_cut, _xor_cut
from repostminer.eventlog import Dfg

Node = TypeVar("Node")

BACKWARD_EDGE = "backward edge"


def strongly_connected(nodes: Iterable[Node],
                       succ: Mapping[Node, Iterable[Node]]) -> list[frozenset[Node]]:
    """Iterative Tarjan; components returned ordered by their least member.
    A node missing from ``succ`` has no successors."""
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
    return sorted(components, key=min)


def sequence_cut(dfg: Dfg, alphabet: set[str]) -> Cut | str | None:
    succ: dict[str, list[str]] = {a: [] for a in alphabet}
    for a, b in sorted(dfg.edge_counts):
        if a in alphabet and b in alphabet and a != b:
            succ[a].append(b)
    sccs = strongly_connected(sorted(alphabet), succ)
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
                return BACKWARD_EDGE  # a backward edge survived: not a sequence
    return Cut(SEQ, tuple(frozenset(groups[r]) for r in ordered))


def components(nodes: list[Node],
               adjacency: Mapping[Node, set[Node]]) -> list[frozenset[Node]]:
    """Components of an undirected graph by depth-first search, ordered by
    least member."""
    seen: set[Node] = set()
    found = []
    for start in nodes:
        if start in seen:
            continue
        stack, comp = [start], set()
        while stack:
            node = stack.pop()
            if node not in comp:
                comp.add(node)
                stack.extend(adjacency[node] - comp)
        seen |= comp
        found.append(frozenset(comp))
    return sorted(found, key=min)


def parallel_cut(dfg: Dfg, alphabet: set[str]) -> Cut | None:
    edges = {(a, b) for a, b in dfg.edge_counts if a in alphabet and b in alphabet}
    adjacency: dict[str, set[str]] = {a: set() for a in alphabet}
    items = sorted(alphabet)
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            if not ((a, b) in edges and (b, a) in edges):
                adjacency[a].add(b)
                adjacency[b].add(a)
    blocks = components(items, adjacency)
    if len(blocks) < 2:
        return None
    starts = set(dfg.start_counts) & alphabet
    ends = set(dfg.end_counts) & alphabet
    for block in blocks:
        if not (block & starts) or not (block & ends):
            return None
    return Cut(PAR, tuple(blocks))


def find_cut(dfg, alphabet):
    """``discovery.find_cut`` with these references as its sequence and
    parallel cuts."""
    if len(alphabet) < 2:
        return None
    for attempt in (_xor_cut, sequence_cut, parallel_cut, _loop_cut):
        cut = attempt(dfg, alphabet)
        if cut is not None:
            return cut
    return None
