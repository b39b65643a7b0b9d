"""Structural and behavioral measures of discovered nets.

Density and diameter treat the net as a directed graph over places and
transitions.  Behavior is summarized by the Kolmogorov-Sinai entropy of a
Markov chain over the markings replays visit, each replay closed end-to-start;
:func:`replay_entropy` takes it from the move counts of
``stochastic.tally_replays``, with no reachability graph or transition
matrix.  A two-sample Kolmogorov-Smirnov test compares waiting-time samples
between runs.  Every measure is plain Python.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from collections import Counter
from typing import Callable, NamedTuple, Sequence

from .petri import Marking, PetriNet
from .stochastic import ReplayTally, WaitingStats


class MeasureError(ValueError):
    """The measure is undefined for this net (too few nodes / no arcs)."""


class ChainConstructionError(RuntimeError):
    """The Markov chain could not be estimated (no conforming replays)."""


def density(net: PetriNet) -> float:
    """Arc count over ordered node pairs: |F| / (|V| * (|V| - 1))."""
    nodes = net.node_count()
    if nodes < 2:
        raise MeasureError("density needs at least 2 nodes")
    return len(net.arcs) / (nodes * (nodes - 1))


def diameter(net: PetriNet) -> int:
    """Longest shortest directed path, in edges, over reachable node pairs:
    the number of rounds in which some node's reach bitset grows, when each
    round ORs into it the last round's bitsets of its successors."""
    if not net.arcs:
        raise MeasureError("diameter needs at least one arc")
    index = {node: i for i, node in enumerate(net.places + net.transitions)}
    arcs = [(index[a], index[b]) for a, b in net.arcs]
    reach, depth = [1 << i for i in range(len(index))], 0
    while True:
        grown = reach.copy()
        for a, b in arcs:
            grown[a] |= reach[b]
        if grown == reach:
            return depth
        reach, depth = grown, depth + 1


def check_log_base(log_base: float | None) -> None:
    """Raise ``ValueError`` unless ``log_base`` is ``None`` or a finite
    positive number other than 1."""
    if log_base is not None and not (0 < log_base < math.inf and log_base != 1):
        raise ValueError(f"entropy log base must be finite, positive and not 1, "
                         f"got {log_base}")


def replay_entropy(tally: ReplayTally, log_base: float | None = None) -> float:
    """Kolmogorov-Sinai entropy of the replay chain over markings, from the
    move counts of a tally of the replays.

    The chain moves between the markings the conforming replays visit, with
    probabilities estimated from move counts.  Every replay starts at the
    initial marking and is closed back to it, so every trace's termination
    counts, the chain is regenerative and its stationary law is the
    normalised visit count (Kemeny & Snell, *Finite Markov Chains*): the
    entropy is ``sum n(s, s') * -log(n(s, s') / out(s)) / sum visits(s)``
    over the moves counted between markings, summed in the order the moves
    were first seen.  Natural logarithm by default; pass ``log_base`` to
    rescale.  No reachability graph or matrix is built.
    """
    check_log_base(log_base)
    if not tally.conforming:
        raise ChainConstructionError("no conforming replays to estimate the entropy from")
    out_totals: Counter[Marking] = Counter()
    for (src, _), n in tally.moves.items():
        out_totals[src] += n
    weighted = 0.0
    for (src, _), n in tally.moves.items():
        weighted -= n * math.log(n / out_totals[src])
    h = weighted / sum(out_totals.values())  # every visit departs once
    if log_base is not None:
        h /= math.log(log_base)
    return h


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov test.

    Returns ``(D, p)`` where ``D`` is the supremum distance between the two
    empirical CDFs and ``p`` the asymptotic significance
    ``2 * sum_k (-1)^(k-1) exp(-2 k^2 lambda^2)`` with
    ``lambda = (sqrt(n_e) + 0.12 + 0.11 / sqrt(n_e)) * D`` and effective size
    ``n_e = n m / (n + m)``, clamped to [0, 1].
    """
    xa, xb = sorted(map(float, a)), sorted(map(float, b))
    n, m = len(xa), len(xb)
    if n == 0 or m == 0:
        raise ValueError("both samples must be nonempty")
    d = max(abs(bisect_right(xa, x) / n - bisect_right(xb, x) / m)
            for x in xa + xb)
    ne = n * m / (n + m)
    lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * d
    return d, _kolmogorov_pvalue(lam)


def _kolmogorov_pvalue(lam: float) -> float:
    if lam < 0.1:  # the series is numerically 1 here
        return 1.0
    total = 0.0
    for k in range(1, 101):
        term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
        total += term
        if abs(term) < 1e-16:
            break
    return min(1.0, max(0.0, total))


class MeasuredRun(NamedTuple):
    """What a measure reads of one replayed run: the display net, the tally
    of its replays and the waiting stats computed once from it."""

    display: PetriNet
    tally: ReplayTally
    stats: WaitingStats
    log_base: float | None


class Measure(NamedTuple):
    """A ``report.json`` key, its ``report.csv`` column, its value on a run and,
    if runs are compared on it, its ``compare.json`` key and relation (a, b)."""

    key: str
    column: str
    value: Callable[[MeasuredRun], float]
    compare_key: str | None = None
    relate: Callable[[float, float], float] | None = None


# Rows are reported and evaluated in order; a degenerate run fails on its first
# undefined measure.  Values look functions up when called, so that a wrapper
# set on this module (a tracer's, say) is the one measured.
MEASURES: tuple[Measure, ...] = (
    Measure("node_count", "nodes", lambda run: run.display.node_count()),
    Measure("density", "density", lambda run: density(run.display),
            "density_ratio", operator.truediv),
    Measure("diameter", "diameter", lambda run: diameter(run.display),
            "diameter_difference", operator.sub),
    Measure("mean_of_mean_wait_seconds", "mean_wait_seconds",
            lambda run: run.stats.mean_of_means),
    Measure("ks_entropy", "ks_entropy",
            lambda run: replay_entropy(run.tally, run.log_base),
            "entropy_difference", operator.sub),
)
