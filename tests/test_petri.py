import gc
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repostminer.discovery import activity, par, seq, tau, tree_to_net, xor
from repostminer.eventlog import Event, Trace
from repostminer.petri import (
    FiringError,
    Marking,
    NetDefinitionError,
    PetriNet,
    StateCapError,
    enabled,
    fire,
    is_free_choice,
    json_text,
    net_from_json,
    net_to_json,
    reachability_graph,
)
from repostminer.reference_nets import broadcast_net
from repostminer.stochastic import replay_trace, tally_replays
from treeutil import random_replays


def simple_net(**overrides):
    spec = dict(
        places=("p1", "p2"),
        transitions=("t",),
        arcs=(("p1", "t"), ("t", "p2")),
        labels={"t": "a"},
        initial_marking={"p1": 1},
    )
    spec.update(overrides)
    return PetriNet(**spec)


class TestStructure:
    def test_place_transition_overlap_rejected(self):
        with pytest.raises(NetDefinitionError):
            simple_net(places=("t", "p2"), arcs=(("t", "t"),))

    def test_duplicate_arcs_rejected(self):
        with pytest.raises(NetDefinitionError):
            simple_net(arcs=(("p1", "t"), ("p1", "t")))

    def test_arc_between_places_rejected(self):
        with pytest.raises(NetDefinitionError):
            simple_net(arcs=(("p1", "p2"),))

    def test_labels_must_cover_transitions(self):
        with pytest.raises(NetDefinitionError):
            simple_net(labels={})

    def test_marking_drops_zeros_and_sorts(self):
        m = Marking.of({"b": 0, "a": 2, "c": 1})
        assert m == Marking((("c", 1), ("a", 2)))
        assert dict(m) == {"a": 2, "c": 1}
        assert str(m) == "{a:2, c:1}"
        assert repr(m) == "Marking((('a', 2), ('c', 1)))"

    def test_marking_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="negative"):
            Marking.of({"a": -1})


class TestFiring:
    def test_enabled_at_initial(self):
        net = broadcast_net()
        assert enabled(net, net.initial()) == ["A"]

    def test_enabled_after_broadcast(self):
        net = broadcast_net()
        assert enabled(net, Marking.of({"p2": 1, "p3": 1})) == ["B", "C"]

    def test_empty_marking_enables_nothing(self):
        net = broadcast_net()
        assert enabled(net, Marking.of({})) == []

    def test_zero_count_is_no_token(self):
        net = broadcast_net()
        marking = Marking((("p1", 0),))
        assert enabled(net, marking) == []
        with pytest.raises(FiringError, match="p1"):
            fire(net, marking, "A")

    def test_fire_broadcast(self):
        net = broadcast_net()
        assert fire(net, net.initial(), "A") == Marking.of({"p2": 1, "p3": 1})

    def test_fire_disabled_names_place(self):
        net = broadcast_net()
        with pytest.raises(FiringError, match="p2"):
            fire(net, net.initial(), "B")

    def test_self_loop_place_unchanged(self):
        net = PetriNet(
            places=("p", "q"),
            transitions=("t",),
            arcs=(("p", "t"), ("t", "p"), ("t", "q")),
            labels={"t": "a"},
            initial_marking={"p": 1},
        )
        after = fire(net, net.initial(), "t")
        assert dict(after) == {"p": 1, "q": 1}

    def test_self_loop_still_requires_token(self):
        net = PetriNet(
            places=("p",), transitions=("t",),
            arcs=(("p", "t"), ("t", "p")), labels={"t": "a"},
            initial_marking={},
        )
        with pytest.raises(FiringError):
            fire(net, net.initial(), "t")

    def test_token_delta_matches_degrees(self):
        net = broadcast_net()
        m = net.initial()
        after = fire(net, m, "A")
        delta = sum(dict(after).values()) - sum(dict(m).values())
        assert delta == len(net.postset("A")) - len(net.preset("A"))


class TestFreeChoice:
    def test_broadcast_is_free_choice(self):
        assert is_free_choice(broadcast_net())

    def test_shared_place_with_extra_input_violates(self):
        net = PetriNet(
            places=("p", "q"),
            transitions=("t1", "t2"),
            arcs=(("p", "t1"), ("p", "t2"), ("q", "t1")),
            labels={"t1": "a", "t2": "b"},
            initial_marking={},
        )
        assert not is_free_choice(net)

    def test_disjoint_presets_are_free_choice(self):
        net = PetriNet(
            places=("p", "q", "r"),
            transitions=("t1", "t2"),
            arcs=(("p", "t1"), ("q", "t1"), ("r", "t2")),
            labels={"t1": "a", "t2": "b"},
            initial_marking={},
        )
        assert is_free_choice(net)


class TestReachability:
    def test_broadcast_matches_state_chain(self):
        rg = reachability_graph(broadcast_net())
        assert len(rg.states) == 5
        assert len(rg.edges) == 5
        assert rg.states[0] == Marking.of({"p1": 1})
        labels = sorted((e.src, e.label, e.dst) for e in rg.edges)
        assert labels == [(0, "A", 1), (1, "B", 2), (1, "C", 3),
                          (2, "C", 4), (3, "B", 4)]
        assert rg.end_states == (4,)

    def test_dead_initial_marking(self):
        net = simple_net(initial_marking={})
        rg = reachability_graph(net)
        assert len(rg.states) == 1 and not rg.edges
        assert rg.end_states == (0,)

    def test_unbounded_net_hits_cap(self):
        net = PetriNet(
            places=("p",), transitions=("t",), arcs=(("t", "p"),),
            labels={"t": "a"}, initial_marking={},
        )
        with pytest.raises(StateCapError):
            reachability_graph(net, state_cap=1000)

    def test_deterministic_numbering(self):
        a = reachability_graph(broadcast_net())
        b = reachability_graph(broadcast_net())
        assert a.states == b.states and a.edges == b.edges

    def test_one_marking_table(self):
        # the graph, replay, the tally and fire share the kernel's markings
        rng = random.Random(23)
        for _ in range(25):
            net, replays = random_replays(rng)
            states = reachability_graph(net).states
            assert states[0] is net.initial() is net.kernel.start
            held = {id(s) for s in states}
            for src, dst in tally_replays(net, replays).moves:
                assert id(src) in held and id(dst) in held
            for marking in states:
                for t in enabled(net, marking):
                    assert id(fire(net, marking, t)) in held

    def test_markings_share_pairs(self):
        # every state the kernel holds is built from one object per pair
        rng = random.Random(23)
        for _ in range(25):
            net, _replays = random_replays(rng)
            states = reachability_graph(net).states
            assert (len({id(pair) for s in states for pair in s})
                    == len({pair for s in states for pair in s}))

    def test_bytes_per_marking(self):
        # ->(lead, /\(X(tau, b0), ..., X(tau, b9))): replaying 100 traces of
        # the bots in any order reaches a few hundred markings, each held by
        # the kernel with its successor and search entries
        tree = seq(activity("lead"), par(*(xor(tau(), activity(f"b{i}")) for i in range(10))))
        rng = random.Random(7)
        traces = []
        for n in range(100):
            bots = [f"b{i}" for i in range(10) if rng.random() < 0.8]
            rng.shuffle(bots)
            traces.append(Trace(f"t{n}", tuple(Event(f"t{n}", a, second)
                                               for second, a in enumerate(["lead"] + bots))))
        for net in tree_to_net(tree), tree_to_net(tree):  # the first run warms up
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tally = tally_replays(net, (replay_trace(net, trace) for trace in traces))
                assert tally.conforming == 100
                reached = len({marking for move in tally.moves for marking in move})
                del tally
                gc.collect()
                held = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        assert reached > 300
        # built from shared pairs, about 1.26 kB a marking on CPython 3.11;
        # with a fresh tuple per pair, 1.81 kB
        assert held / reached < 1500


# Every scalar json writes, the corner cases of each named: non-ASCII text,
# control characters and quotes; signed zeros, the largest and smallest
# magnitudes and the non-finite floats.
JSON_SCALARS = (
    st.text()
    | st.sampled_from(["Zoë", "\x00\x1f\x7f", '"\\/', "\u2028\U0001f600", ""])
    | st.integers()
    | st.floats()
    | st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324, math.nan, math.inf, -math.inf])
    | st.booleans()
    | st.none())
JSON_DOCS = st.recursive(
    JSON_SCALARS | st.lists(st.floats()) | st.lists(st.text()),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=12)


class TestJson:
    @given(JSON_DOCS)
    @settings(deadline=None)
    def test_text_is_json_dumps(self, doc):
        assert json_text(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("doc", [{1: "a"}, {"a": {"b": 1, 2: 3}}, [{None: 1}]])
    def test_key_that_is_no_str_rejected(self, doc):
        with pytest.raises(TypeError):
            json_text(doc)

    def test_roundtrip(self):
        net = broadcast_net()
        again = net_from_json(net_to_json(net))
        assert again.places == net.places
        assert again.transitions == net.transitions
        assert again.arcs == net.arcs
        assert dict(again.labels) == dict(net.labels)
        assert dict(again.initial_marking) == dict(net.initial_marking)

    def test_silent_label_survives(self):
        net = simple_net(labels={"t": None})
        assert net_from_json(net_to_json(net)).label("t") is None
