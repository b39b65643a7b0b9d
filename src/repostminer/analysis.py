"""Structural and behavioral measures of discovered nets.

Density and diameter treat the net as a directed graph over places and
transitions.  Behavior is summarized by a Markov chain estimated from replay
traversals of the reachability graph, closed end-to-start so a stationary
distribution exists, from which Kolmogorov-Sinai entropy follows.  A
two-sample Kolmogorov-Smirnov test compares waiting-time samples between
runs.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .petri import PetriNet, ReachabilityGraph
from .stochastic import ReplayResult

ROW_SUM_TOLERANCE = 1e-9


class MeasureError(ValueError):
    """The measure is undefined for this net (too few nodes / no arcs)."""


class MatrixError(ValueError):
    """The transition matrix is not row-stochastic."""


class ConvergenceError(RuntimeError):
    """No single stationary distribution could be reached."""


class ChainConstructionError(RuntimeError):
    """The Markov chain could not be estimated (no conforming replays)."""


def density(net: PetriNet) -> float:
    """Arc count over ordered node pairs: |F| / (|V| * (|V| - 1))."""
    nodes = net.node_count()
    if nodes < 2:
        raise MeasureError("density needs at least 2 nodes")
    return len(net.arcs) / (nodes * (nodes - 1))


def diameter(net: PetriNet) -> int:
    """Longest shortest directed path, in edges, over reachable node pairs."""
    if not net.arcs:
        raise MeasureError("diameter needs at least one arc")
    best = 0
    for source in net.places + net.transitions:
        dist = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for nxt in net.postset(node):
                if nxt not in dist:
                    dist[nxt] = dist[node] + 1
                    queue.append(nxt)
        best = max(best, max(dist.values()))
    return best


@dataclass(eq=False)
class MarkovChain:
    """Replay-visited reachability states with a row-stochastic matrix.

    ``states[i]`` is the reachability-graph state index behind matrix row
    ``i``; ``stationary`` is filled once computed.
    """

    states: tuple[int, ...]
    matrix: np.ndarray
    stationary: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        n = len(self.states)
        if self.matrix.shape != (n, n):
            raise MatrixError(f"matrix shape {self.matrix.shape} != ({n}, {n})")


def build_markov_chain(rg: ReachabilityGraph,
                       replays: Sequence[ReplayResult]) -> MarkovChain:
    """Estimate state-transition probabilities from replay traversals.

    Each conforming replay's firing sequence is mapped to a path through the
    reachability graph starting at state 0.  Visited states with no outgoing
    traversal are closed back to the initial state with probability one, so
    the chain always admits a stationary distribution; states never visited
    are dropped.
    """
    conforming = [r for r in replays if r.conforming]
    if not conforming:
        raise ChainConstructionError("no conforming replays to build the chain from")

    step = {(e.src, e.transition): e.dst for e in rg.edges}
    traversals: Counter[tuple[int, int]] = Counter()
    visited = {0}
    for result in conforming:
        state = 0
        for firing in result.firings:
            nxt = step.get((state, firing.transition))
            if nxt is None:
                raise ValueError(
                    f"replay of {result.trace_id} fires {firing.transition} "
                    f"outside the reachability graph")
            traversals[(state, nxt)] += 1
            state = nxt
            visited.add(state)

    states = tuple(sorted(visited))
    pos = {s: i for i, s in enumerate(states)}
    matrix = np.zeros((len(states), len(states)))
    out_totals: Counter[int] = Counter()
    for (src, _), n in traversals.items():
        out_totals[src] += n
    for (src, dst), n in traversals.items():
        matrix[pos[src], pos[dst]] = n / out_totals[src]
    for s in states:
        if out_totals[s] == 0:  # observed end state: close back to the start
            matrix[pos[s], pos[0]] = 1.0
    return MarkovChain(states, matrix)


def _closed_classes(matrix: np.ndarray) -> list[list[int]]:
    """Strongly connected components with no outgoing probability mass."""
    n = matrix.shape[0]
    succ = [list(np.nonzero(matrix[i] > 0)[0]) for i in range(n)]
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
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
                    work.append((nxt, iter(succ[nxt])))
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
                comp = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.append(member)
                    if member == node:
                        break
                sccs.append(sorted(comp))
    scc_of = {node: i for i, comp in enumerate(sccs) for node in comp}
    closed = []
    for i, comp in enumerate(sccs):
        if all(scc_of[j] == i for node in comp for j in succ[node]):
            closed.append(comp)
    return closed


def stationary_distribution(mc: MarkovChain, tol: float = 1e-10,
                            max_iter: int = 100_000) -> np.ndarray:
    """Stationary probabilities via power iteration on the half-lazy matrix.

    Iterating (P + I) / 2 defeats periodicity while keeping the fixed point;
    the residual ||mu P - mu||_1 is checked against ``tol`` on the original
    matrix.  Raises :class:`MatrixError` for non-stochastic input and
    :class:`ConvergenceError` when several closed communicating classes make
    the distribution ambiguous or the iteration cap is hit.
    """
    P = np.asarray(mc.matrix, dtype=float)
    n = P.shape[0]
    if n == 0:
        raise MatrixError("empty chain")
    sums = P.sum(axis=1)
    if np.any(P < -ROW_SUM_TOLERANCE) or np.any(np.abs(sums - 1.0) > ROW_SUM_TOLERANCE):
        bad = int(np.argmax(np.abs(sums - 1.0)))
        raise MatrixError(f"row {bad} sums to {sums[bad]}, not 1")

    closed = _closed_classes(P)
    if len(closed) > 1:
        named = "; ".join("{" + ", ".join(str(mc.states[i]) for i in comp) + "}"
                          for comp in closed)
        raise ConvergenceError(f"multiple closed classes: {named}")

    mu = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        step = mu @ P
        if np.abs(step - mu).sum() <= tol:
            mu = np.maximum(mu, 0.0)
            result = mu / mu.sum()
            mc.stationary = result
            return result
        mu = 0.5 * (step + mu)  # half-lazy update: same fixed point, aperiodic
    raise ConvergenceError(f"no convergence within {max_iter} iterations")


def ks_entropy(mc: MarkovChain, log_base: float | None = None) -> float:
    """Kolmogorov-Sinai entropy: stationary-weighted row entropies.

    Natural logarithm by default; pass ``log_base`` to rescale.  Zero
    probabilities contribute nothing (0 log 0 = 0).
    """
    mu = mc.stationary if mc.stationary is not None else stationary_distribution(mc)
    P = mc.matrix
    mask = P > 0
    row_entropy = -np.where(mask, P * np.log(np.where(mask, P, 1.0)), 0.0).sum(axis=1)
    h = float(mu @ row_entropy)
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
    xa = np.sort(np.asarray(a, dtype=float))
    xb = np.sort(np.asarray(b, dtype=float))
    n, m = len(xa), len(xb)
    if n == 0 or m == 0:
        raise ValueError("both samples must be nonempty")
    grid = np.concatenate([xa, xb])
    fa = np.searchsorted(xa, grid, side="right") / n
    fb = np.searchsorted(xb, grid, side="right") / m
    d = float(np.max(np.abs(fa - fb)))
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


@dataclass(frozen=True)
class MetricsReport:
    """One row of the structural/behavioral summary table."""

    node_count: int
    density: float
    diameter: int
    mean_of_mean_wait_seconds: float
    ks_entropy: float
    provenance: dict[str, object] = field(default_factory=dict)

    CSV_HEADER = "nodes,density,diameter,mean_wait_seconds,ks_entropy"

    def csv_row(self) -> str:
        return (f"{self.node_count},{self.density!r},{self.diameter},"
                f"{self.mean_of_mean_wait_seconds!r},{self.ks_entropy!r}")

    def as_dict(self) -> dict[str, object]:
        return {
            "node_count": self.node_count,
            "density": self.density,
            "diameter": self.diameter,
            "mean_of_mean_wait_seconds": self.mean_of_mean_wait_seconds,
            "ks_entropy": self.ks_entropy,
            "provenance": dict(self.provenance),
        }
