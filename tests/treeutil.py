"""Shared helpers for tests over random process trees and their nets."""

from hypothesis import strategies as st

from repostminer.discovery import activity, loop, par, seq, tau, xor
from repostminer.stochastic import EmpiricalDelay, StochasticPetriNet


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


def uniform_fspn(net):
    """The net with every choice uniform and every labeled delay 1 s."""
    probabilities = {}
    for place in net.places:
        outs = net.postset(place)
        probabilities.update({(place, t): 1 / len(outs) for t in outs})
    delays = {t: EmpiricalDelay((1.0,)) for t in net.transitions if not net.is_silent(t)}
    return StochasticPetriNet(net, probabilities, delays)
