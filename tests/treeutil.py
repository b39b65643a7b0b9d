"""Shared helpers for tests over random process trees and their nets, and
a hand-built loop net that simulation tests share."""

from collections import deque

from hypothesis import strategies as st

from repostminer.discovery import (ACTIVITY, LOOP, PAR, SEQ, XOR, activity, loop, par, seq, tau,
                                   tree_to_net, xor)
from repostminer.eventlog import EventLog, Trace
from repostminer.petri import PetriNet, enabled, fire
from repostminer.stochastic import EmpiricalDelay, StochasticPetriNet, replay_log, simulate


def process_trees(labels="abcd", width=3):
    """Small process trees over ``labels`` and silent leaves; an operator
    has 2 to ``width`` children."""
    leaves = st.sampled_from(list(labels)).map(activity) | st.just(tau())

    def operators(children):
        two_or_more = st.lists(children, min_size=2, max_size=width)
        return (two_or_more.map(lambda c: seq(*c)) | two_or_more.map(lambda c: xor(*c))
                | two_or_more.map(lambda c: par(*c))
                | two_or_more.map(lambda c: loop(c[0], *c[1:])))

    return operators(st.recursive(leaves, operators, max_leaves=3))


def _leaves(shape):
    return 1 if shape is None else sum(map(_leaves, shape[1]))


def _alphabet(tree):
    return {tree.label} if tree.kind == ACTIVITY else set().union(*map(_alphabet, tree.children))


def directly_follows(tree):
    """The directly-follows pairs, start and end activities of the traces of
    a tree without tau leaves, as sets."""
    if tree.kind == ACTIVITY:
        return set(), {tree.label}, {tree.label}
    parts = [directly_follows(child) for child in tree.children]
    edges = set().union(*(e for e, _, _ in parts))
    starts = set().union(*(s for _, s, _ in parts))
    ends = set().union(*(e for _, _, e in parts))
    if tree.kind == SEQ:
        for (_, _, before), (_, after, _) in zip(parts, parts[1:]):
            edges |= {(a, b) for a in before for b in after}
        starts, ends = parts[0][1], parts[-1][2]
    elif tree.kind == PAR:
        alphabets = [_alphabet(child) for child in tree.children]
        edges |= {(a, b) for i, x in enumerate(alphabets) for j, y in enumerate(alphabets)
                  if i != j for a in x for b in y}
    elif tree.kind == LOOP:
        _, starts, ends = parts[0]
        for _, redo_starts, redo_ends in parts[1:]:
            edges |= {(a, b) for a in ends for b in redo_starts}
            edges |= {(a, b) for a in redo_ends for b in starts}
    return edges, starts, ends


def in_lc(tree):
    """True iff no loop body of ``tree`` can start and end with the same
    activity; with distinct labels and no tau leaves that puts a tree in the
    class Lc that the inductive miner rediscovers from any log whose
    directly-follows graph is the tree's (Leemans, Fahland & van der Aalst,
    "Discovering block-structured process models from event logs - a
    constructive approach", Petri Nets 2013)."""
    if tree.kind == ACTIVITY:
        return True
    if tree.kind == LOOP:
        _, starts, ends = directly_follows(tree.children[0])
        if starts & ends:
            return False
    return all(map(in_lc, tree.children))


def _shapes(depth):
    """Tree shapes of at most ``depth`` operator levels: ``None`` for a leaf,
    ``(kind, children)`` for an operator of 2 or 3 children.  A loop body is
    a sequence, so with distinct labels its start and end activities differ."""
    below = st.none() if depth == 1 else st.none() | _shapes(depth - 1)
    shapes = st.tuples(st.sampled_from((SEQ, XOR, PAR)),
                       st.lists(below, min_size=2, max_size=3))
    if depth > 1:
        body = _shapes(depth - 1).map(lambda shape: (SEQ, shape[1]))
        shapes |= st.tuples(st.just(LOOP), st.tuples(body, st.lists(below, min_size=1, max_size=2))
                            .map(lambda parts: [parts[0], *parts[1]]))
    return shapes


def lc_trees(labels="abcdef", depth=3):
    """Process trees in Lc (see :func:`in_lc`) of at most ``depth`` operator
    levels, each leaf a distinct one of ``labels``; every loop body is a
    sequence, which leaves out Lc's loops over choices or parallel blocks
    of sequences."""
    build = {SEQ: seq, XOR: xor, PAR: par, LOOP: loop}

    def tree(shape, names):
        if shape is None:
            return activity(next(names))
        kind, children = shape
        return build[kind](*(tree(child, names) for child in children))

    shapes = _shapes(depth).filter(lambda shape: _leaves(shape) <= len(labels))
    return st.tuples(shapes, st.permutations(labels)).map(
        lambda drawn: tree(drawn[0], iter(drawn[1])))


def bounded_language(net, bound=7, cap=50_000):
    """The label sequences of at most ``bound`` labels along the firing
    sequences from the initial marking to a dead one: a breadth-first search
    over ``petri.enabled`` and ``fire``, silent firings adding no label.

    A net with more than ``cap`` (marking, word) pairs fails an assertion
    that names it, within a second.  Passing rediscovery runs visit at most
    10,977 pairs, but a wrong discovery near a flower over six accounts has
    up to 6**7 words, a search of seconds for each such example."""
    first = (net.initial(), ())
    seen, queue, words = {first}, deque([first]), set()
    while queue:
        marking, word = queue.popleft()
        steps = enabled(net, marking)
        if not steps:
            words.add(word)
        for t in steps:
            label = net.label(t)
            after = (fire(net, marking, t), word if label is None else word + (label,))
            if len(after[1]) <= bound and after not in seen:
                seen.add(after)
                queue.append(after)
                assert len(seen) <= cap, (
                    f"more than {cap} (marking, word) pairs within {bound} labels: {net!r}")
    return frozenset(words)


def random_tree(rng, labels="abcd", width=3, depth=2):
    """A process tree drawn from ``random.Random`` ``rng``: an operator over
    2 to ``width`` children, each a leaf or, while ``depth`` exceeds 1,
    possibly another such tree."""
    children = [random_tree(rng, labels, width, depth - 1)
                if depth > 1 and rng.random() < 0.4
                else (tau() if rng.random() < 0.15 else activity(rng.choice(labels)))
                for _ in range(rng.randint(2, width))]
    return rng.choice((seq, xor, par, loop))(*children)


SPREAD_DELAYS = (0.3, 1.0, 1.7, 2.9, 4.1)


def uniform_fspn(net):
    """The net with every choice uniform and every labeled delay drawn from
    ``SPREAD_DELAYS``, so that a simulated parallel block shows more than
    one interleaving (equal delays fire in transition id order)."""
    probabilities = {}
    for place in net.places:
        outs = net.postset(place)
        probabilities.update({(place, t): 1 / len(outs) for t in outs})
    delays = {t: EmpiricalDelay(SPREAD_DELAYS) for t in net.transitions if not net.is_silent(t)}
    return StochasticPetriNet(net, probabilities, delays)


def loop_fspn():
    """A choice place starting with 3 tokens feeds A or B; a silent join
    waits for one of each, then C ends the round or a silent loop puts two
    tokens back (one through D).  Routing takes several passes per instant,
    an unmatched token leaves the join waiting for good, and long runs hit
    the firing cap."""
    net = PetriNet(
        places=("p0", "p1", "p2", "p3", "p4"),
        transitions=("A", "B", "join", "C", "loop", "D"),
        arcs=(("p0", "A"), ("p0", "B"), ("A", "p1"), ("B", "p2"),
              ("p1", "join"), ("p2", "join"), ("join", "p3"),
              ("p3", "C"), ("p3", "loop"), ("loop", "p0"), ("loop", "p4"),
              ("p4", "D"), ("D", "p0")),
        labels={"A": "A", "B": "B", "join": None, "C": "C", "loop": None, "D": "D"},
        initial_marking={"p0": 3},
    )
    return StochasticPetriNet(
        net,
        arc_probabilities={("p0", "A"): 0.5, ("p0", "B"): 0.5,
                           ("p1", "join"): 1.0, ("p2", "join"): 1.0,
                           ("p3", "C"): 0.1, ("p3", "loop"): 0.9, ("p4", "D"): 1.0},
        delay_distributions={"A": EmpiricalDelay((1.0, 5.0, 9.0)),
                             "B": EmpiricalDelay((2.0, 4.0)),
                             "C": EmpiricalDelay((3.0, 30.0)),
                             "D": EmpiricalDelay((0.0, 6.0))},
    )


def random_replays(rng):
    """The net of a :func:`random_tree` and the replays of a seeded uniform
    log of it, some traces cut short as truncated cascades are."""
    net = tree_to_net(random_tree(rng))
    traces = list(simulate(uniform_fspn(net), rng.randint(1, 12),
                           seed=rng.randrange(2**32), max_firings=60).traces)
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(traces))
        traces[i] = Trace(traces[i].trace_id, traces[i].events[:rng.randint(0, 9)])
    return net, replay_log(net, EventLog(tuple(traces)))
