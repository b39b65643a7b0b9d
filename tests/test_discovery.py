import gc
import random

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

import refcut
from logutil import make_log
from repostminer.discovery import (
    Cut,
    ProcessTree,
    _parallel_cut,
    _sequence_cut,
    activity,
    discover_tree,
    filter_dfg,
    find_cut,
    format_tree,
    loop,
    par,
    reduce_net,
    seq,
    tau,
    tree_to_net,
    xor,
)
from repostminer.eventlog import Dfg, EventLog, dfg_from_sequences
from repostminer.petri import is_free_choice
from repostminer.stochastic import replay_trace, simulate
from treeutil import bounded_language, directly_follows, in_lc, lc_trees, uniform_fspn


class TestFilterDfg:
    def test_weak_outgoing_edge_removed(self):
        dfg = Dfg({("a", "B"): 100, ("a", "C"): 10}, {"a": 110}, {"B": 100, "C": 10})
        out = filter_dfg(dfg, 0.2)
        assert ("a", "C") not in out.edge_counts
        assert out.edge_counts[("a", "B")] == 100

    def test_zero_threshold_is_identity(self):
        dfg = Dfg({("a", "b"): 1, ("a", "c"): 99}, {"a": 2}, {"b": 1, "c": 1})
        assert filter_dfg(dfg, 0.0) == dfg

    def test_threshold_one_keeps_only_maxima(self):
        dfg = Dfg({("a", "b"): 3, ("a", "c"): 5, ("b", "c"): 2},
                  {"a": 5, "b": 1}, {"c": 6})
        out = filter_dfg(dfg, 1.0)
        assert set(out.edge_counts) == {("a", "c"), ("b", "c")}
        assert out.start_counts == {"a": 5}

    def test_start_end_counts_filtered(self):
        dfg = Dfg({}, {"a": 100, "b": 5}, {"c": 50, "d": 49})
        out = filter_dfg(dfg, 0.2)
        assert out.start_counts == {"a": 100}
        assert out.end_counts == {"c": 50, "d": 49}


class TestFindCut:
    def test_sequence_cut_on_broadcast_log(self):
        dfg = dfg_from_sequences(make_log([("A", "B", "C"), ("A", "C", "B")]).sequences())
        cut = find_cut(dfg, {"A", "B", "C"})
        assert cut == Cut("seq", (frozenset({"A"}), frozenset({"B", "C"})))

    def test_parallel_cut_on_two_way_pair(self):
        dfg = Dfg({("B", "C"): 1, ("C", "B"): 1}, {"B": 1, "C": 1},
                  {"B": 1, "C": 1})
        cut = find_cut(dfg, {"B", "C"})
        assert cut == Cut("par", (frozenset({"B"}), frozenset({"C"})))

    def test_xor_cut_on_disconnected_parts(self):
        dfg = dfg_from_sequences(make_log([("A", "B"), ("C", "D")]).sequences())
        cut = find_cut(dfg, {"A", "B", "C", "D"})
        assert cut.kind == "xor"
        assert set(cut.partition) == {frozenset({"A", "B"}), frozenset({"C", "D"})}

    def test_loop_cut_body_and_redo(self):
        # A starts and ends every trace; R only occurs between repetitions.
        dfg = dfg_from_sequences(make_log([("A", "R", "A"), ("A",)]).sequences())
        cut = find_cut(dfg, {"A", "R"})
        assert cut == Cut("loop", (frozenset({"A"}), frozenset({"R"})))

    def test_single_activity_no_cut(self):
        dfg = dfg_from_sequences(make_log([("A",)]).sequences())
        assert find_cut(dfg, {"A"}) is None

    def test_mutual_pair_with_missing_start_has_no_cut(self):
        # B never starts a trace, so neither parallel nor loop applies.
        dfg = dfg_from_sequences(make_log([("A", "B", "A"), ("A", "B")]).sequences())
        assert find_cut(dfg, {"A", "B"}) is None

    def test_diamond_merges_its_unordered_middle(self):
        dfg = Dfg({("A", "B"): 1, ("A", "C"): 1, ("B", "D"): 1, ("C", "D"): 1},
                  {"A": 2}, {"D": 2})
        cut = find_cut(dfg, {"A", "B", "C", "D"})
        assert cut == Cut("seq", (frozenset({"A"}), frozenset({"B", "C"}),
                                  frozenset({"D"})))

    def test_activity_without_edges_merges_every_block(self):
        # E neither reaches nor is reached by any chain member
        dfg = Dfg({("A", "B"): 1, ("B", "C"): 1}, {"A": 1, "E": 1}, {"C": 1, "E": 1})
        assert _sequence_cut(dfg, {"A", "B", "C", "E"}) is None
        assert find_cut(dfg, {"A", "B", "C", "E"}).kind == "xor"

    def test_long_chain_gives_one_block_per_account_in_chain_order(self):
        # names out of sorted order, so only the edges give the order
        chain = [f"u{i * 7919 % 1000:03d}" for i in range(300)]
        dfg = Dfg({(a, b): 1 for a, b in zip(chain, chain[1:])},
                  {chain[0]: 1}, {chain[-1]: 1})
        cut = find_cut(dfg, set(chain))
        assert cut == Cut("seq", tuple(frozenset({a}) for a in chain))


@st.composite
def dfgs(draw):
    """A random DFG and its alphabet of 2 to 8 activities.  Each pair of
    activities has no edge, an edge along a hidden order, one against it,
    or both; a few more edges, and the start and end counts, may also name
    activities outside the alphabet."""
    order = draw(st.permutations("ABCDEFGH"))[:draw(st.integers(2, 8))]
    pairs = [(a, b) for i, a in enumerate(order) for b in order[i + 1:]]
    kinds = draw(st.lists(st.integers(0, 7), min_size=len(pairs), max_size=len(pairs)))
    edges = {}
    for (a, b), kind in zip(pairs, kinds):
        if kind >= 3:
            edges[(a, b)] = kind
        if kind in (0, 7):
            edges[(b, a)] = 1
    names = st.sampled_from(order + ["X", "Y"])
    counts = st.integers(1, 5)
    edges.update(draw(st.dictionaries(st.tuples(names, names), counts, max_size=4)))
    starts = draw(st.dictionaries(names, counts, max_size=4))
    ends = draw(st.dictionaries(names, counts, max_size=4))
    return Dfg(edges, starts, ends), set(order)


class TestSequenceCutReference:
    @settings(max_examples=300, deadline=None)
    @given(dfgs())
    def test_cut_equals_the_reference(self, case):
        dfg, alphabet = case
        expected = refcut.sequence_cut(dfg, alphabet)
        assert expected != refcut.BACKWARD_EDGE
        assert _sequence_cut(dfg, alphabet) == expected
        assert find_cut(dfg, alphabet) == refcut.find_cut(dfg, alphabet)


@st.composite
def parallel_dfgs(draw):
    """A random DFG and its alphabet of 2 to 8 activities in up to 3 hidden
    blocks.  A pair across blocks is two-way unless a rare draw drops one
    direction; a pair within a block has no edge, one or both.  Self-loops
    and a few more edges may be added, and the start and end counts may
    name activities outside the alphabet or miss a block."""
    order = draw(st.permutations("ABCDEFGH"))[:draw(st.integers(2, 8))]
    block = dict(zip(order, draw(st.lists(st.integers(0, 2), min_size=len(order),
                                          max_size=len(order)))))
    edges = {}
    for i, a in enumerate(order):
        for b in order[i + 1:]:
            kind = draw(st.integers(0, 9))
            if block[a] != block[b]:
                forward, backward = kind != 0, kind != 1
            else:
                forward, backward = kind in (2, 3, 4), kind in (4, 5, 6)
            if forward:
                edges[(a, b)] = 1
            if backward:
                edges[(b, a)] = 1
    names = st.sampled_from(order + ["X", "Y"])
    counts = st.integers(1, 5)
    edges.update(draw(st.dictionaries(st.tuples(names, names), counts, max_size=4)))
    edges.update({(a, a): 1 for a in draw(st.lists(names, max_size=3))})
    starts, ends = (draw(st.dictionaries(names, counts, min_size=len(order) // 2,
                                         max_size=len(order) + 2))
                    for _ in range(2))
    return Dfg(edges, starts, ends), set(order)


class TestParallelCutReference:
    @settings(max_examples=300, deadline=None)
    @given(parallel_dfgs() | dfgs())
    def test_cut_equals_the_reference(self, case):
        dfg, alphabet = case
        assert _parallel_cut(dfg, alphabet) == refcut.parallel_cut(dfg, alphabet)
        assert find_cut(dfg, alphabet) == refcut.find_cut(dfg, alphabet)


class TestDiscover:
    def test_broadcast_fixture(self):
        log = make_log([("A", "B", "C"), ("A", "C", "B")])
        assert format_tree(discover_tree(log, 0.2)) == "->(A, /\\(B, C))"

    def test_single_activity_leaf(self):
        assert format_tree(discover_tree(make_log([("A",)] * 10), 0.2)) == "A"

    def test_single_activity_with_repeats(self):
        log = make_log([("A", "A"), ("A",)])
        assert format_tree(discover_tree(log, 0.2)) == "*(A, tau)"

    def test_empty_log_is_tau(self):
        assert discover_tree(EventLog(), 0.2) == tau()

    def test_empty_traces_add_root_skip(self):
        log = make_log([(), ("A",)])
        assert format_tree(discover_tree(log, 0.2)) == "X(tau, A)"

    def test_flower_fall_through(self):
        log = make_log([("A", "B", "A"), ("A", "B")])
        assert format_tree(discover_tree(log, 0.0)) == "*(tau, A, B)"

    def test_mutual_pair_with_repeats_parallelizes(self):
        # both activities start and end traces, so the parallel predicate
        # holds and takes precedence over the flower fall-through
        log = make_log([("A", "B", "A"), ("B", "A", "B"), ("A",), ("B", "B")])
        tree = discover_tree(log, 0.0)
        assert format_tree(tree) == "/\\(X(tau, *(A, tau)), X(tau, *(B, tau)))"
        net = tree_to_net(tree)
        assert all(replay_trace(net, t).conforming for t in log.traces)

    def test_choice_of_sequences(self):
        log = make_log([("A", "B"), ("A", "B"), ("C", "D")])
        assert format_tree(discover_tree(log, 0.0)) == "X(->(A, B), ->(C, D))"

    def test_skippable_sequence_tail(self):
        log = make_log([("A", "B"), ("A",)])
        assert format_tree(discover_tree(log, 0.0)) == "->(A, X(tau, B))"

    def test_deterministic(self):
        seqs = [("A", "B", "C"), ("A", "C", "B"), ("A", "B"), ("D",)]
        trees = {format_tree(discover_tree(make_log(seqs), 0.2))
                 for _ in range(5)}
        assert len(trees) == 1


class TestTreeToNet:
    def test_leaf_net_shape(self):
        net = tree_to_net(activity("A"))
        assert net.node_count() == 3 and len(net.arcs) == 2
        assert len(net.arcs) / (3 * 2) == pytest.approx(1 / 3)

    def test_broadcast_language(self):
        net = tree_to_net(seq(activity("A"), par(activity("B"), activity("C"))))
        assert bounded_language(net) == frozenset(
            {("A", "B", "C"), ("A", "C", "B")})

    def test_every_construction_is_free_choice(self):
        trees = [
            activity("A"),
            tau(),
            seq(activity("A"), activity("B")),
            xor(activity("A"), tau()),
            par(activity("A"), activity("B"), activity("C")),
            loop(activity("A"), tau()),
            loop(tau(), activity("A"), activity("B")),
            seq(xor(activity("A"), activity("B")),
                par(loop(activity("C"), tau()), activity("D"))),
        ]
        for tree in trees:
            assert is_free_choice(tree_to_net(tree)), format_tree(tree)

    def test_workflow_net_shape(self):
        net = tree_to_net(par(activity("A"), loop(activity("B"), activity("C"))))
        sources = [p for p in net.places if not net.preset(p)]
        sinks = [p for p in net.places if not net.postset(p)]
        assert sources == ["p0"] and sinks == ["p1"]
        assert net.initial_marking == {"p0": 1}

    def test_leaves_no_cyclic_garbage(self):
        # the builder must be freed by reference counting: with the collector
        # paused, as during a CLI command, cyclic garbage would stay until the end
        tree = seq(activity("A"), xor(activity("B"), tau()),
                   par(activity("C"), loop(activity("D"), tau(), activity("E"))))
        was = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            net = tree_to_net(tree)
            assert gc.collect() == 0
        finally:
            if was:
                gc.enable()
        assert {net.label(t) for t in net.transitions} == {"A", "B", "C", "D", "E", None}

    def test_flower_net_accepts_any_interleaving(self):
        net = tree_to_net(loop(tau(), activity("A"), activity("B")))
        rng = random.Random(5)
        for _ in range(20):
            word = [rng.choice("AB") for _ in range(rng.randrange(0, 6))]
            log = make_log([tuple(word)])
            result = replay_trace(net, log.traces[0])
            assert result.conforming, word


def rediscovery_fitness(seqs, threshold=0.0):
    log = make_log(seqs)
    net = tree_to_net(discover_tree(log, threshold))
    assert is_free_choice(net)
    sources = [p for p in net.places if not net.preset(p)]
    sinks = [p for p in net.places if not net.postset(p)]
    assert len(sources) == 1 and len(sinks) == 1
    return all(replay_trace(net, t).conforming for t in log.traces)


class TestRediscoveryFitness:
    def test_fixture_logs_replay(self):
        assert rediscovery_fitness([("A", "B", "C"), ("A", "C", "B")])
        assert rediscovery_fitness([("A", "B", "A"), ("A", "B")])
        assert rediscovery_fitness([("A",), ("A", "A", "A")])

    def test_random_logs_replay(self):
        rng = random.Random(1234)
        alphabet = "ABCDE"
        for round_no in range(25):
            seqs = []
            for _ in range(rng.randrange(1, 6)):
                n = rng.randrange(1, 8)
                seqs.append(tuple(rng.choice(alphabet) for _ in range(n)))
            assert rediscovery_fitness(seqs), (round_no, seqs)


class TestRediscovery:
    # Hypothesis's explain phase reruns a failing example hundreds of times,
    # at up to half a second each here: minutes before a failure is reported.
    @given(lc_trees(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None,
              phases=[phase for phase in Phase if phase is not Phase.explain])
    def test_lc_tree_language_rediscovered(self, tree, seed):
        # From a log of a tree in Lc that shows every directly-follows pair
        # of the tree, discovery gives back a tree of the same language.
        # 400 traces with spread delays almost always show them all.
        assert in_lc(tree)
        source = tree_to_net(tree)
        log = simulate(uniform_fspn(source), 400, seed=seed)
        dfg = dfg_from_sequences(log.sequences())
        assume((set(dfg.edge_counts), set(dfg.start_counts), set(dfg.end_counts))
               == directly_follows(tree))
        found = discover_tree(log, threshold=0)
        assert bounded_language(tree_to_net(found)) == bounded_language(source), (
            format_tree(tree), format_tree(found))

    @pytest.mark.parametrize("tree", [
        loop(activity("a"), activity("b")),
        loop(activity("a"), activity("b"), activity("c")),
        seq(activity("c"), loop(activity("a"), activity("b")), activity("d")),
        xor(loop(activity("a"), activity("b")), activity("c")),
    ], ids=format_tree)
    def test_one_activity_loop_body_rediscovered(self, tree):
        # Outside Lc, as the body starts and ends alike, yet rediscovered:
        # a and b follow each other both ways here, and only the parallel
        # cut's need of a start and an end in every block rejects /\(a, b).
        found = discover_tree(simulate(uniform_fspn(tree_to_net(tree)), 400, seed=3),
                              threshold=0)
        assert format_tree(found) == format_tree(tree)

    @pytest.mark.parametrize("tree", [
        seq(activity("a"), xor(activity("b"), activity("c"))),
        loop(seq(activity("a"), xor(activity("b"), activity("c"))), activity("d")),
    ], ids=format_tree)
    def test_sequence_cut_merges_unreachable_components(self, tree):
        # b and c never follow each other, so neither reaches the other and
        # the sequence cut must keep them in one block; without that merge
        # ->(a, X(b, c)) comes back as ->(a, X(tau, b), X(tau, c)).
        found = discover_tree(simulate(uniform_fspn(tree_to_net(tree)), 400, seed=3),
                              threshold=0)
        assert format_tree(found) == format_tree(tree)


class TestReduceNet:
    def test_broadcast_reduces_to_three_chains(self):
        net = tree_to_net(seq(activity("A"), par(activity("B"), activity("C"))))
        red = reduce_net(net)
        assert red.node_count() == 6 and len(red.arcs) == 5
        assert is_free_choice(red)
        assert bounded_language(red) == bounded_language(net)

    def test_idempotent(self):
        net = tree_to_net(seq(activity("A"), par(activity("B"), activity("C"))))
        red = reduce_net(net)
        again = reduce_net(red)
        assert again.places == red.places and again.arcs == red.arcs

    def test_labeled_transitions_survive(self):
        net = tree_to_net(loop(tau(), activity("A"), activity("B")))
        red = reduce_net(net)
        labels = {red.label(t) for t in red.transitions}
        assert {"A", "B"} <= labels

    def test_marked_source_survives(self):
        net = tree_to_net(activity("A"))
        red = reduce_net(net)
        assert any(red.initial_marking.get(p, 0) for p in red.places)


class TestProcessTreeShape:
    def test_operator_arity_enforced(self):
        with pytest.raises(ValueError):
            ProcessTree("seq", children=(activity("A"),))
        with pytest.raises(ValueError):
            ProcessTree("loop", children=(activity("A"),))

    def test_leaf_shape_enforced(self):
        with pytest.raises(ValueError):
            ProcessTree("activity")
        with pytest.raises(ValueError):
            ProcessTree("tau", label="A")

    def test_cut_blocks_disjoint(self):
        with pytest.raises(ValueError):
            Cut("xor", (frozenset({"A"}), frozenset({"A", "B"})))
