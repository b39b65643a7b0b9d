"""Shared helpers for tests over random process trees and their nets."""

from hypothesis import strategies as st

from repostminer.discovery import activity, loop, par, seq, tau, tree_to_net, xor
from repostminer.eventlog import EventLog, Trace
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
