"""Dense reference for the replay chain's Kolmogorov-Sinai entropy.

``analysis.replay_entropy`` reads the entropy off visit counts, which is
exact only because the end-to-start closed chain is regenerative.  This
reference assumes nothing of the kind: it builds the transition matrix over
the markings the conforming replays visit, with ``petri.fire`` and each
replay closed from its end marking back to the initial one, solves the
stationary law as a linear system and weights the row entropies by it.
"""

import math

import numpy as np

from repostminer.petri import fire


def move_counts(net, replays):
    """Matrix of move counts between the visited markings; row 0 is the
    initial marking, and each conforming replay adds one closing move from
    its end marking back to it."""
    start = net.initial()
    index = {start: 0}
    moves = []
    for replay in replays:
        if not replay.conforming:
            continue
        marking, state = start, 0
        for firing in replay.firings:
            marking = fire(net, marking, firing.transition)
            nxt = index.setdefault(marking, len(index))
            moves.append((state, nxt))
            state = nxt
        moves.append((state, 0))
    counts = np.zeros((len(index), len(index)))
    for src, dst in moves:
        counts[src, dst] += 1
    return counts


def stationary(P):
    """The stationary law of the row-stochastic ``P``: the least-squares
    solution of ``mu (P - I) = 0`` with ``sum mu = 1``."""
    n = len(P)
    A = np.vstack([P.T - np.eye(n), np.ones(n)])
    b = np.concatenate([np.zeros(n), [1.0]])
    mu, *_ = np.linalg.lstsq(A, b, rcond=None)
    return mu


def dense_entropy(net, replays, log_base=None):
    """KS entropy of the replays' closed chain: stationary-weighted row
    entropies of the dense matrix, with 0 log 0 = 0."""
    counts = move_counts(net, replays)
    P = counts / counts.sum(axis=1, keepdims=True)
    logs = np.log(np.where(P > 0, P, 1.0))
    h = float(-(stationary(P) @ (P * logs).sum(axis=1)))
    if log_base is not None:
        h /= math.log(log_base)
    return h
