import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from densechain import dense_entropy, move_counts, stationary
from logutil import make_log
from repostminer.analysis import (
    ChainConstructionError,
    MeasureError,
    density,
    diameter,
    ks_two_sample,
    replay_entropy,
)
from refgraph import bfs_diameter
from repostminer.discovery import (ProcessTree, activity, loop, par, reduce_net, seq, tau,
                                   tree_to_net, xor)
from repostminer.eventlog import EventLog, Trace
from repostminer.petri import PetriNet
from repostminer.reference_nets import broadcast_net, sequential_net
from repostminer.stochastic import Firing, ReplayResult, replay_log, simulate, tally_replays
from treeutil import process_trees, random_replays, random_tree, uniform_fspn


class TestStructuralMeasures:
    def test_broadcast_density(self):
        assert density(broadcast_net()) == pytest.approx(5 / 30)

    def test_two_node_density(self):
        net = PetriNet(("p",), ("t",), (("p", "t"),), {"t": "a"}, {})
        assert density(net) == pytest.approx(0.5)

    def test_density_needs_two_nodes(self):
        net = PetriNet(("p",), (), (), {}, {})
        with pytest.raises(MeasureError):
            density(net)

    def test_density_bounds(self):
        rng = random.Random(7)
        for _ in range(20):
            n_p = rng.randrange(1, 4)
            n_t = rng.randrange(1, 4)
            places = tuple(f"p{i}" for i in range(n_p))
            transitions = tuple(f"t{i}" for i in range(n_t))
            arcs = []
            for p in places:
                for t in transitions:
                    if rng.random() < 0.5:
                        arcs.append((p, t))
                    if rng.random() < 0.5:
                        arcs.append((t, p))
            net = PetriNet(places, transitions, tuple(arcs),
                           {t: t for t in transitions}, {})
            assert 0.0 <= density(net) <= 1.0

    def test_broadcast_diameter(self):
        assert diameter(broadcast_net()) == 3

    def test_single_arc_diameter(self):
        net = PetriNet(("p",), ("t",), (("p", "t"),), {"t": "a"}, {})
        assert diameter(net) == 1

    def test_diameter_needs_arcs(self):
        net = PetriNet(("p", "q"), (), (), {}, {})
        with pytest.raises(MeasureError):
            diameter(net)

    def test_diameter_ignores_unreachable_pairs(self):
        net = PetriNet(("p", "q"), ("t", "u"),
                       (("p", "t"), ("q", "u")),
                       {"t": "a", "u": "b"}, {})
        assert diameter(net) == 1

    @pytest.mark.parametrize("kind, expected", [(loop, 5), (seq, 599)])
    def test_300_account_nets(self, kind, expected):
        # the flower is shallow; the sequence is the deepest net of its size
        accounts = [activity(f"u{i:03d}") for i in range(300)]
        tree = loop(tau(), *accounts) if kind is loop else seq(*accounts)
        net = reduce_net(tree_to_net(tree))
        assert diameter(net) == bfs_diameter(net) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_net_equals_reference(self, data):
        places = [f"p{i}" for i in range(data.draw(st.integers(1, 6)))]
        transitions = [f"t{i}" for i in range(data.draw(st.integers(1, 6)))]
        arcs = data.draw(st.lists(st.sampled_from(
            [(p, t) for p in places for t in transitions]
            + [(t, p) for p in places for t in transitions]), min_size=1, unique=True))
        net = PetriNet(tuple(places), tuple(transitions), tuple(arcs),
                       {t: t for t in transitions}, {})
        assert diameter(net) == bfs_diameter(net)

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_tree_net_equals_reference(self, rng):
        net = tree_to_net(random_tree(rng, width=4, depth=3))
        reduced = reduce_net(net)  # may have no arcs left, and no diameter
        for shown in (net, reduced) if reduced.arcs else (net,):
            assert diameter(shown) == bfs_diameter(shown)


def replays_of(net, seqs):
    return replay_log(net, make_log(seqs))


def replays_marked_fitting(net, seqs):
    """Replays of ``seqs`` on a net with no dead marking, marked fitting by
    hand: there replay fits no trace, as completion never reaches a dead
    marking, but a tally closes any fitting replay from where it ends."""
    replays = replays_of(net, seqs)
    assert all(not r.conforming and r.failed_index is None for r in replays)
    return [r._replace(conforming=True) for r in replays]


def entropy_of(net, replays, log_base=None):
    """``replay_entropy`` of the tally of ``replays`` on ``net``."""
    return replay_entropy(tally_replays(net, replays), log_base)


def uniform_two_state_net():
    """p0 loops on a or moves on b to p1, which loops on c: the trace
    (a, b, c) and its closing move make every row 1/2 : 1/2."""
    return PetriNet(("p0", "p1"), ("a", "b", "c"),
                    (("p0", "a"), ("a", "p0"), ("p0", "b"), ("b", "p1"),
                     ("p1", "c"), ("c", "p1")),
                    {"a": "a", "b": "b", "c": "c"}, {"p0": 1})


class TestMarkovChain:
    """The chain over replay-visited markings, as ``replay_entropy`` reads it."""

    def test_traversal_frequencies(self):
        # after A, two replays fire B first and one C: a 2/3 : 1/3 row
        # departed 3 times of the 12 departures
        net = broadcast_net()
        replays = replays_of(net, [("A", "B", "C"), ("A", "B", "C"), ("A", "C", "B")])
        row = -2 / 3 * math.log(2 / 3) - 1 / 3 * math.log(1 / 3)
        assert entropy_of(net, replays) == pytest.approx(row * 3 / 12, abs=1e-12)

    def test_end_state_closed_to_start(self):
        # the two closing moves count as departures: 8 of them, not 6
        net = broadcast_net()
        replays = replays_of(net, [("A", "B", "C"), ("A", "C", "B")])
        assert entropy_of(net, replays) == pytest.approx(math.log(2) / 4, abs=1e-12)

    def test_cycle_needs_no_closure(self):
        net = PetriNet(("p",), ("t",), (("p", "t"), ("t", "p")),
                       {"t": "a"}, {"p": 1})
        assert entropy_of(net, replays_marked_fitting(net, [("a", "a"), ("a",)])) == 0.0

    def test_unvisited_states_dropped(self):
        # the C, D, E branch is never entered: its markings take no share
        # of the stationary law, which leaves par(A, B)'s ln 2 / 5
        net = tree_to_net(xor(par(activity("A"), activity("B")),
                              seq(activity("C"), activity("D"), activity("E"))))
        replays = replays_of(net, [("A", "B"), ("B", "A")])
        assert entropy_of(net, replays) == pytest.approx(math.log(2) / 5, abs=1e-12)

    def test_no_conforming_replays(self):
        with pytest.raises(ChainConstructionError):
            entropy_of(broadcast_net(), [])

    @pytest.mark.parametrize("log_base", [1, 0, -2, math.inf, math.nan])
    def test_bad_log_base_rejected(self, log_base):
        net = broadcast_net()
        with pytest.raises(ValueError, match="log base"):
            entropy_of(net, replays_of(net, [("A", "B", "C")]), log_base)

    def test_every_trace_closed(self):
        # (A, B) fits ->(A, B, C) only as a prefix, so it feeds no chain.
        net = tree_to_net(seq(activity("A"), activity("B"), activity("C")))
        replays = replay_log(net, make_log([("A", "B", "C")] * 3 + [("A", "B")] * 2))
        assert [r.conforming for r in replays] == [True] * 3 + [False] * 2
        assert entropy_of(net, replays) == 0.0
        # Marked fitting, it ends where the (A, B, C) traces pass through:
        # its termination must still count, splitting that state 3 : 2.
        replays = [r._replace(conforming=True) for r in replays]
        expected = (-0.6 * math.log(0.6) - 0.4 * math.log(0.4)) * 5 / 18
        assert expected == pytest.approx(0.186947685, abs=1e-9)
        assert entropy_of(net, replays) == pytest.approx(expected, abs=1e-12)


class TestStationary:
    """The dense reference's stationary solve, and the regenerative law that
    lets ``replay_entropy`` do without it."""

    def test_swap_chain_is_uniform(self):
        mu = stationary(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert mu == pytest.approx([0.5, 0.5])

    def test_hand_solved_two_state(self):
        mu = stationary(np.array([[0.5, 0.5], [0.25, 0.75]]))
        assert mu == pytest.approx([1 / 3, 2 / 3])

    def test_transient_states_are_fine(self):
        mu = stationary(np.array([[0.0, 1.0], [0.0, 1.0]]))
        assert mu == pytest.approx([0.0, 1.0], abs=1e-9)

    def test_matches_direct_solve_on_random_chains(self):
        # the closed replay chain's stationary law is its normalised visit count
        rng = random.Random(2024)
        for _ in range(25):
            net, replays = random_replays(rng)
            if not any(r.conforming for r in replays):
                continue
            counts = move_counts(net, replays)
            visits = counts.sum(axis=1)
            mu = stationary(counts / visits[:, None])
            assert np.max(np.abs(mu - visits / visits.sum())) <= 1e-9


class TestEntropy:
    def test_deterministic_cycle_zero(self):
        net = sequential_net()
        assert entropy_of(net, replays_of(net, [("A", "B", "C")] * 3)) == 0.0

    def test_two_state_uniform_ln2(self):
        net = uniform_two_state_net()
        assert entropy_of(net, replays_marked_fitting(net, [("a", "b", "c")])) == pytest.approx(
            math.log(2), abs=1e-12)

    def test_log_base_rescales(self):
        net = uniform_two_state_net()
        replays = replays_marked_fitting(net, [("a", "b", "c")])
        assert entropy_of(net, replays, log_base=2) == pytest.approx(1.0, abs=1e-12)

    def test_bounded_by_log_out_degree(self):
        rng = random.Random(5)
        for _ in range(25):
            net, replays = random_replays(rng)
            if not any(r.conforming for r in replays):
                continue
            out_degree = int((move_counts(net, replays) > 0).sum(axis=1).max())
            assert 0.0 <= entropy_of(net, replays) <= math.log(out_degree) + 1e-12

    def test_invariant_under_relabeling(self):
        # renaming and reordering places and transitions keeps every marking
        # distinct, so the chain and its entropy stay the same
        rng = random.Random(8)
        for _ in range(10):
            net, replays = random_replays(rng)
            if not any(r.conforming for r in replays):
                continue
            names = {n: f"x{i}" for i, n in enumerate(
                rng.sample(net.places + net.transitions, net.node_count()))}
            renamed = PetriNet(
                tuple(rng.sample([names[p] for p in net.places], len(net.places))),
                tuple(rng.sample([names[t] for t in net.transitions],
                                 len(net.transitions))),
                tuple((names[a], names[b]) for a, b in net.arcs),
                {names[t]: net.label(t) for t in net.transitions},
                {names[p]: n for p, n in net.initial_marking.items()})
            moved = [r._replace(firings=tuple(f._replace(transition=names[f.transition])
                                              for f in r.firings)) for r in replays]
            assert entropy_of(renamed, moved) == pytest.approx(
                entropy_of(net, replays), abs=1e-12)


class TestReplayEntropy:
    @given(process_trees(), st.integers(0, 2**32 - 1), st.integers(1, 12),
           st.lists(st.tuples(st.integers(0, 11), st.integers(0, 9)), max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_equals_chain_entropy(self, tree: ProcessTree, seed, n_traces, cuts):
        net = tree_to_net(tree)
        traces = list(simulate(uniform_fspn(net), n_traces, seed=seed,
                               max_firings=60).traces)
        for index, keep in cuts:  # some traces stop short, as truncated cascades do
            t = traces[index % len(traces)]
            traces[index % len(traces)] = Trace(t.trace_id, t.events[:keep])
        replays = replay_log(net, EventLog(tuple(traces)))
        assume(any(r.conforming for r in replays))
        for base in (None, 2):
            assert entropy_of(net, replays, base) == pytest.approx(
                dense_entropy(net, replays, base), abs=1e-9)

    def test_nonconforming_replays_ignored(self):
        net = broadcast_net()
        replays = replay_log(net, make_log([("A", "B", "C"), ("B",)]))
        assert entropy_of(net, replays) == 0.0

    def test_no_conforming_replays(self):
        net = broadcast_net()
        with pytest.raises(ChainConstructionError):
            entropy_of(net, replay_log(net, make_log([("B",)])))

    def test_firing_outside_the_net_rejected(self):
        replays = replay_log(broadcast_net(), make_log([("A", "C", "B")]))
        with pytest.raises(ValueError, match="C where it is not enabled"):
            entropy_of(sequential_net(), replays)

    def test_disabled_firing_rejected_on_a_warm_kernel(self):
        net = sequential_net()
        kernel = net.kernel
        good = replay_log(net, make_log([("A", "B", "C")]))
        bad = ReplayResult("bad", (Firing("A", "A", 0.0, 0.0), Firing("C", "C", 0.0, 1.0)),
                           True)
        with pytest.raises(ValueError, match="replay of bad fires C where it is not enabled"):
            entropy_of(net, good + [bad])
        after_a = kernel.succ[kernel.start, "A"]
        assert (after_a, "C") not in kernel.succ
        assert kernel.successor(after_a, "C") is None


def ecdf_distance_oracle(a, b):
    best = 0.0
    for v in list(a) + list(b):
        fa = sum(1 for x in a if x <= v) / len(a)
        fb = sum(1 for x in b if x <= v) / len(b)
        best = max(best, abs(fa - fb))
    return best


class TestKsTwoSample:
    def test_identical_samples(self):
        d, p = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert d == 0.0 and p == 1.0

    def test_disjoint_supports(self):
        d, _ = ks_two_sample([1, 2, 3], [10, 20, 30])
        assert d == 1.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=30)
        b = rng.normal(loc=0.5, size=40)
        assert ks_two_sample(a, b) == ks_two_sample(b, a)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0, 1, size=25)
        b = rng.uniform(0, 1, size=35)
        d_raw, _ = ks_two_sample(a, b)
        d_exp, _ = ks_two_sample(np.exp(a), np.exp(b))
        assert d_raw == pytest.approx(d_exp, abs=1e-12)

    def test_statistic_matches_double_loop_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            n, m = rng.integers(1, 40), rng.integers(1, 40)
            tie_pool = rng.integers(0, 8, size=n) if rng.random() < 0.5 else None
            a = tie_pool.astype(float) if tie_pool is not None else rng.normal(size=n)
            b = (rng.integers(0, 8, size=m).astype(float)
                 if rng.random() < 0.5 else rng.normal(size=m))
            d, p = ks_two_sample(a, b)
            assert d == pytest.approx(ecdf_distance_oracle(a, b), abs=1e-12)
            assert 0.0 <= p <= 1.0

    def test_large_shifted_samples_reject(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=300)
        b = rng.normal(loc=2.0, size=300)
        _, p = ks_two_sample(a, b)
        assert p < 1e-6
