import functools
import json
import math
import random
import statistics
import struct
import time
from collections import deque
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logutil import make_log
from refreplay import reference_replay_log
from reftally import reference_enrich, reference_entropy, reference_waiting_stats
from repostminer.analysis import ChainConstructionError, replay_entropy
from repostminer.discovery import activity, discover_tree, par, seq, tau, tree_to_net, xor
from repostminer.eventlog import Event, EventLog, Trace
from repostminer.petri import (PetriNet, StateCapError, is_block_structured, net_from_json,
                               net_to_json, reachability_graph)
from repostminer.reference_nets import broadcast_net, sequential_net, threshold_fspn
from repostminer.stochastic import (
    EmpiricalDelay,
    EnrichmentError,
    Firing,
    ReplayResult,
    StatsError,
    StochasticPetriNet,
    _cdf,
    _silent_path,
    _Stream,
    _with_search,
    enrich,
    enrich_from_tally,
    fspn_from_json,
    fspn_to_json,
    mean,
    replay_log,
    replay_trace,
    simulate,
    tally_replays,
    waiting_time_stats,
)
from treeutil import process_trees, random_tree, uniform_fspn


def timed_trace(pairs, trace_id="x"):
    return Trace(trace_id, tuple(Event(trace_id, a, ts) for a, ts in pairs))


MOTIVATING = [("A", 0), ("B", 5), ("C", 7)]


class TestReplay:
    def test_parallel_reading_waits(self):
        result = replay_trace(broadcast_net(), timed_trace(MOTIVATING))
        waits = {f.label: f.wait for f in result.firings if f.label}
        assert result.conforming
        assert waits == {"A": 0, "B": 5, "C": 7}

    def test_sequential_reading_waits(self):
        result = replay_trace(sequential_net(), timed_trace(MOTIVATING))
        waits = {f.label: f.wait for f in result.firings if f.label}
        assert waits == {"A": 0, "B": 5, "C": 2}

    def test_nonconforming_records_index(self):
        result = replay_trace(broadcast_net(), timed_trace([("B", 0)]))
        assert not result.conforming and result.failed_index == 0

    def test_nonconforming_midway(self):
        result = replay_trace(broadcast_net(),
                              timed_trace([("A", 0), ("B", 1), ("B", 2)]))
        assert not result.conforming and result.failed_index == 2

    def test_waits_on_discovered_net_match_fixture(self):
        log = make_log([("A", "B", "C"), ("A", "C", "B")])
        net = tree_to_net(discover_tree(log, 0.0))
        result = replay_trace(net, timed_trace(MOTIVATING))
        waits = {f.label: f.wait for f in result.firings if f.label}
        assert result.conforming
        assert waits == {"A": 0, "B": 5, "C": 7}

    def test_waits_nonnegative_and_exact(self):
        result = replay_trace(sequential_net(),
                              timed_trace([("A", 100), ("B", 150), ("C", 400)]))
        for f in result.firings:
            assert f.wait >= 0
            assert f.wait == f.fired_at - f.enabled_at

    def test_firing_times_nondecreasing(self):
        result = replay_trace(broadcast_net(), timed_trace(MOTIVATING))
        fired = [f.fired_at for f in result.firings]
        assert fired == sorted(fired)

    def test_firing_times_nondecreasing_with_silent_routing(self):
        log = make_log([("A", "B", "C"), ("A", "C", "B"), ("A",)])
        net = tree_to_net(discover_tree(log, 0.0))
        for trace in log.traces:
            result = replay_trace(net, trace)
            assert result.conforming
            fired = [f.fired_at for f in result.firings]
            assert fired == sorted(fired)

    def test_silent_completion_consumes_skips(self):
        fspn = threshold_fspn()
        result = replay_trace(fspn.net, timed_trace([("A", 0), ("B", 9)]))
        assert result.conforming
        assert [f.transition for f in result.firings] == ["A", "B", "skipC"]

    def test_empty_trace_conforms_trivially(self):
        net = tree_to_net(xor(tau(), activity("A")))
        result = replay_trace(net, Trace("e", ()))
        assert result.conforming and [f.label for f in result.firings] == [None]

    def test_empty_trace_of_a_net_that_needs_an_event_is_a_prefix(self):
        result = replay_trace(broadcast_net(), Trace("e", ()))
        assert (result.conforming, result.failed_index, result.firings) == (False, None, ())

    def test_prefix_of_a_sequence_fits_only_as_a_prefix(self):
        # every event fires, but no silent path completes ->(A, B, C) after B
        net = tree_to_net(seq(activity("A"), activity("B"), activity("C")))
        result = replay_trace(net, timed_trace([("A", 0), ("B", 5)]))
        assert not result.conforming and result.failed_index is None
        assert [f.label for f in result.firings] == ["A", "B"]
        tally = tally_replays(net, [result])
        assert (tally.conforming, tally.failures, tally.fired) == (0, [("x", None)], {})


@functools.cache
def replay_models():
    """The threshold net and a discovered 8-account flower, each with the
    stochastic net ``simulate`` draws logs from."""
    rng = random.Random(1)
    accounts = [f"u{i}" for i in range(8)]
    log = make_log([rng.sample(accounts, 5) for _ in range(40)])
    flower = tree_to_net(discover_tree(log, 0.2))
    return {"threshold": threshold_fspn(), "flower": enrich(flower, log)}


def inject(trace, edits):
    """Apply (position, kind) edits: "unknown" inserts an account the net
    does not know, "swap" exchanges two neighbouring accounts, keeping the
    timestamps in place."""
    events = list(trace.events)
    for position, kind in edits:
        if kind == "unknown":
            i = position % (len(events) + 1)
            ts = events[i - 1].timestamp if i else 0
            events.insert(i, Event(trace.trace_id, "stranger", ts))
        elif len(events) > 1:
            i = position % (len(events) - 1)
            a, b = events[i], events[i + 1]
            events[i] = Event(a.trace_id, b.activity, a.timestamp)
            events[i + 1] = Event(b.trace_id, a.activity, b.timestamp)
    return Trace(trace.trace_id, tuple(events))


def edited_log(fspn, seed, n_traces, edits, max_firings=1000):
    """A simulated log with (trace index, position, kind) edits injected."""
    traces = list(simulate(fspn, n_traces, seed=seed, max_firings=max_firings).traces)
    for index, position, kind in edits:
        i = index % len(traces)
        traces[i] = inject(traces[i], [(position, kind)])
    return EventLog(tuple(traces))


EDITS = st.lists(st.tuples(st.integers(0, 24), st.integers(0, 20),
                           st.sampled_from(["unknown", "swap"])), max_size=8)


class TestMemoizedReplay:
    @given(st.sampled_from(["threshold", "flower"]), st.integers(0, 2**32 - 1),
           st.integers(1, 25), EDITS)
    @settings(max_examples=60, deadline=None)
    def test_memoized_equals_cold(self, model, seed, n_traces, edits):
        # The models' nets are shared by every example, so their kernels are
        # warm; each cold replay runs on a freshly built copy of the net.
        fspn = replay_models()[model]
        log = edited_log(fspn, seed, n_traces, edits)
        memoized = replay_log(fspn.net, log)
        cold = [replay_trace(net_from_json(net_to_json(fspn.net)), t) for t in log.traces]
        assert memoized == cold
        for trace, result in zip(log.traces, memoized):
            if any(e.activity == "stranger" for e in trace.events):
                assert not result.conforming

    @given(process_trees("abcdef", width=6),
           st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 8), EDITS),
                    min_size=2, max_size=2))
    @settings(max_examples=100, deadline=None)
    def test_warm_kernel_equals_reference(self, tree, logs):
        # Two logs replayed one after the other on one net give the results
        # and the entropy of the per-call-memo reference on a fresh net.
        net = tree_to_net(tree)
        for seed, n_traces, edits in logs:
            log = edited_log(uniform_fspn(net), seed, n_traces, edits, max_firings=60)
            fresh = net_from_json(net_to_json(net))
            replays, reference = replay_log(net, log), reference_replay_log(fresh, log)
            assert replays == reference
            if any(r.conforming for r in replays):
                assert (replay_entropy(tally_replays(net, replays))
                        == replay_entropy(tally_replays(fresh, reference)))
        # A goal search memoized by the marking of the places it tests is
        # the search from the full marking.
        kernel = net.kernel
        for (state, goal), found in kernel.search.steps.items():
            assert (None if found is None else found[1]) == _silent_path(
                kernel, dict(state), goal)


def labeled(net, label):
    """The transitions carrying ``label``, in net order."""
    return tuple(t for t in net.transitions if net.label(t) == label)


def reference_path(net, counts, goal_label):
    """Replay's silent-path search as a breadth-first search over every
    silent transition, expanded in net order and cut at depth
    ``len(kernel.silent)``: the result the faster searches must equal."""
    kernel = net.kernel
    goals = None if goal_label is None else labeled(net, goal_label)
    max_depth = len(kernel.silent)
    queue = deque([(counts, ())])
    seen = {frozenset(counts.items())}
    while queue:
        current, path = queue.popleft()
        if goals is None:
            if not kernel.enabled(current):
                return path
        elif hits := kernel.enabled(current, goals):
            return path + (hits[0],)
        if len(path) >= max_depth:
            continue
        for t in kernel.enabled(current, kernel.silent):
            succ = kernel.fire(current, t)
            k = frozenset(succ.items())
            if k not in seen:
                seen.add(k)
                queue.append((succ, path + (t,)))
    return None


def fire_all(kernel, counts, transitions):
    for t in transitions:
        counts = kernel.fire(counts, t)
    return counts


def campaign_log(width, cascades=150, seed=12):
    """Repeat-repost campaign: each cascade is a lead, then all ``width``
    bots in random order, with a 30% chance of one bot reposting twice,
    cut to 10 events."""
    rng = random.Random(seed)
    bots = [f"b{i:02d}" for i in range(width)]
    seqs = []
    for _ in range(cascades):
        who = rng.sample(bots, width)
        if rng.random() < 0.3:
            who.insert(rng.randrange(width + 1), rng.choice(bots))
        seqs.append((["lead"] + who)[:10])
    return make_log(seqs)


class TestSilentSearch:
    @given(process_trees("abcdef", width=6), st.integers(0, 2**32 - 1),
           st.integers(1, 8),
           st.lists(st.tuples(st.integers(0, 7), st.integers(0, 20),
                              st.sampled_from(["unknown", "swap"])), max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_equals_breadth_first_reference(self, tree, seed, n_traces, edits):
        # Every marking a replay passes through, unknown accounts included:
        # the completion from it and the search for its next event.
        net = tree_to_net(tree)
        kernel = _with_search(net)
        assert kernel.search.completion is not None  # a tree's net is certified
        for trace in edited_log(uniform_fspn(net), seed, n_traces, edits,
                                max_firings=60).traces:
            counts = dict(net.initial_marking)
            for event in trace.events + (None,):
                assert (_silent_path(kernel, counts, None)
                        == reference_path(net, counts, None))
                if event is None:
                    break
                found = _silent_path(kernel, counts, event.activity)
                assert found == reference_path(net, counts, event.activity)
                if found is None:
                    break
                counts = fire_all(kernel, counts, found)

    def test_prefix_of_a_sequence_has_no_completion(self):
        net = tree_to_net(seq(activity("A"), activity("B"), activity("C")))
        kernel = _with_search(net)
        counts = dict(net.initial_marking)
        for label in "AB":
            counts = kernel.fire(counts, labeled(net, label)[0])
        assert _silent_path(kernel, counts, None) is None
        assert reference_path(net, counts, None) is None

    def test_completion_leaves_counts_alone(self):
        # completion fires on a copy: the caller's counts come back as given
        net = tree_to_net(seq(activity("A"), par(xor(tau(), activity("B")),
                                                  xor(tau(), activity("C")))))
        kernel = _with_search(net)
        assert kernel.search.completion is not None
        counts = kernel.fire(net.initial_marking, labeled(net, "A")[0])
        given = dict(counts)
        path = _silent_path(kernel, counts, None)
        assert path and counts == given
        assert fire_all(kernel, counts, path) != given

    def test_unsound_net_completes_by_search(self):
        # A silent choice in front of a silent join: whichever branch fires,
        # the join never does, so the nearest dead marking is one firing
        # away although the distance would count the join too.
        net = PetriNet(
            places=("s", "a", "b", "end"), transitions=("ta", "tb", "join"),
            arcs=(("s", "ta"), ("ta", "a"), ("s", "tb"), ("tb", "b"),
                  ("a", "join"), ("b", "join"), ("join", "end")),
            labels={"ta": None, "tb": None, "join": None},
            initial_marking={"s": 1},
        )
        kernel = _with_search(net)
        assert kernel.search.completion is None
        assert (_silent_path(kernel, {"s": 1}, None)
                == reference_path(net, {"s": 1}, None) == ("ta",))

    def test_goal_search_expands_only_feeding_transitions(self):
        # ->(A, /\(B, C)): the split feeds B and C, the join feeds nothing
        net = tree_to_net(seq(activity("A"), par(activity("B"), activity("C"))))
        plans = _with_search(net).search.plans
        split, _join = net.kernel.silent
        (b,), (c,) = labeled(net, "B"), labeled(net, "C")
        assert plans["B"][:2] == ((b,), (split,)) and plans["C"][:2] == ((c,), (split,))
        assert set(plans["B"][2]) == {*net.preset(split), *net.preset(b)}
        assert plans["A"][1] == () and "stranger" not in plans

    def test_repeat_repost_campaign_width_12(self):
        started = time.perf_counter()
        log = campaign_log(12)
        net = tree_to_net(discover_tree(log, 0.2))
        kernel = net.kernel
        replays = replay_log(net, log)
        elapsed = time.perf_counter() - started
        (sink,) = [p for p in net.places if not kernel.post[p]]
        for result in replays:
            assert result.conforming
            final = fire_all(kernel, dict(net.initial_marking),
                             [f.transition for f in result.firings])
            assert final == {sink: 1}  # completion reached the final marking
        assert len(replays) == 150
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def net_of(arcs, marked="s", labeled=()):
    """A net from its arcs: names starting with ``t`` are transitions, silent
    unless ``labeled`` names them; ``marked`` holds one token."""
    nodes = list(dict.fromkeys(n for arc in arcs for n in arc))
    transitions = tuple(n for n in nodes if n.startswith("t"))
    return PetriNet(tuple(n for n in nodes if n not in transitions), transitions,
                    tuple(arcs), {t: t if t in labeled else None for t in transitions},
                    {marked: 1})


def mutant(net, rng):
    """``net`` after one or two random edits: an arc dropped or added, a
    label flipped, a token added, or a silent transition or a place added
    with one input and one output arc."""
    places, transitions = list(net.places), list(net.transitions)
    arcs, labels, marking = list(net.arcs), dict(net.labels), dict(net.initial_marking)
    for _ in range(rng.randint(1, 2)):
        kind = rng.randrange(6)
        if kind == 0:
            arcs.pop(rng.randrange(len(arcs)))
        elif kind == 1:
            p, t = rng.choice(places), rng.choice(transitions)
            arc = rng.choice([(p, t), (t, p)])
            if arc not in arcs:
                arcs.append(arc)
        elif kind == 2:
            t = rng.choice(transitions)
            labels[t] = "x" if labels[t] is None else None
        elif kind == 3:
            p = rng.choice(places)
            marking[p] = marking.get(p, 0) + 1
        elif kind == 4:
            t = f"new_t{len(transitions)}"
            transitions.append(t)
            labels[t] = None
            arcs += [(rng.choice(places), t), (t, rng.choice(places))]
        else:
            p = f"new_p{len(places)}"
            places.append(p)
            arcs += [(rng.choice(transitions), p), (p, rng.choice(transitions))]
    return PetriNet(tuple(places), tuple(transitions), tuple(arcs), labels, marking)


class TestBlockStructure:
    @given(process_trees("abcdef", width=6))
    @settings(deadline=None)
    def test_every_tree_net_is_certified(self, tree):
        assert is_block_structured(tree_to_net(tree).kernel)

    @pytest.mark.parametrize("net", [
        net_of([("s", "ta"), ("ta", "a"), ("s", "tb"), ("tb", "b"),
                ("a", "tjoin"), ("b", "tjoin"), ("tjoin", "end")]),
        broadcast_net(),
        threshold_fspn().net,
        net_of([("s", "ta"), ("ta", "p"), ("p", "tb"), ("tb", "s")], labeled=("ta",)),
    ], ids=["silent-choice-before-join", "broadcast", "threshold", "marked-cycle"])
    def test_rejects(self, net):
        assert not is_block_structured(net.kernel)

    def test_place_with_two_self_loops_and_an_exit(self):
        net = net_of([("s", "ta"), ("ta", "s"), ("s", "tb"), ("tb", "s"),
                      ("s", "texit"), ("texit", "end")], labeled=("ta",))
        assert is_block_structured(net.kernel)

    def test_certified_mutants_complete_by_descent(self):
        # Mutated tree nets: wherever the rules certify one, completion by
        # descent equals the breadth-first reference from every reachable
        # marking (graphs over 2,000 markings are skipped).
        rng = random.Random(5)
        certified = 0
        for _ in range(3000):
            net = mutant(tree_to_net(random_tree(rng)), rng)
            kernel = net.kernel
            if not is_block_structured(kernel):
                continue
            try:
                states = reachability_graph(net, state_cap=2000).states
            except StateCapError:
                continue
            certified += 1
            _with_search(net)
            for marking in states:
                counts = dict(marking)
                assert (_silent_path(kernel, counts, None)
                        == reference_path(net, counts, None)), net
        assert certified > 300


class TestEnrich:
    def test_branch_shares_recovered(self):
        net = threshold_fspn().net
        seqs = [[("A", 0), ("B", 5)]] * 8 + [[("A", 0)]] * 2
        seqs = [s + ([("C", 9)] if i < 7 else []) for i, s in enumerate(seqs)]
        log = EventLog(tuple(timed_trace(s, f"c{i}") for i, s in enumerate(seqs)))
        fspn = enrich(net, log)
        assert fspn.arc_probabilities[("p2", "B")] == pytest.approx(0.8)
        assert fspn.arc_probabilities[("p2", "skipB")] == pytest.approx(0.2)
        assert fspn.arc_probabilities[("p3", "C")] == pytest.approx(0.7)
        assert fspn.arc_probabilities[("p3", "skipC")] == pytest.approx(0.3)

    def test_single_outgoing_arc_probability_one(self):
        log = make_log([("A", "B", "C")])
        fspn = enrich(broadcast_net(), log)
        assert fspn.arc_probabilities[("p1", "A")] == 1.0

    def test_unvisited_choice_place_uniform(self):
        # Only A is ever observed, so the choice at q2 behind X is never
        # exercised: its place falls back to a uniform split.
        unvisited = PetriNet(
            places=("q1", "q2", "end"),
            transitions=("A", "X", "B", "C"),
            arcs=(("q1", "A"), ("A", "end"), ("q1", "X"), ("X", "q2"),
                  ("q2", "B"), ("B", "end"), ("q2", "C"), ("C", "end")),
            labels={"A": "A", "X": "X", "B": "B", "C": "C"},
            initial_marking={"q1": 1},
        )
        fspn = enrich(unvisited, EventLog((timed_trace([("A", 0)], "t"),)))
        assert fspn.arc_probabilities[("q1", "A")] == 1.0
        assert fspn.arc_probabilities[("q2", "B")] == 0.5
        assert fspn.arc_probabilities[("q2", "C")] == 0.5

    def test_never_fired_transition_has_no_delay(self):
        log = make_log([("A", "B", "C")])
        net = threshold_fspn().net
        fspn = enrich(net, log)
        assert set(fspn.delay_distributions) == {"A", "B", "C"}

    def test_zero_conforming_raises(self):
        log = make_log([("Z",)])
        with pytest.raises(EnrichmentError):
            enrich(broadcast_net(), log)

    def test_normalization_invariant(self):
        log = make_log([("A", "B", "C"), ("A", "C", "B"), ("A", "B")])
        net = tree_to_net(discover_tree(log, 0.0))
        fspn = enrich(net, log)
        for place in net.places:
            outs = net.postset(place)
            if outs:
                total = sum(fspn.arc_probabilities[(place, t)] for t in outs)
                assert total == pytest.approx(1.0, abs=1e-9)


class TestFiring:
    def test_fields_cannot_be_assigned(self):
        firing = Firing("t1", "A", 3.0, 5.5)
        with pytest.raises(AttributeError):
            firing.fired_at = 6.0

    def test_hash_is_the_field_tuple_hash(self):
        fields = ("t1", "A", 3.0, 5.5)
        assert hash(Firing(*fields)) == hash(fields)

    def test_wait_clamps_at_zero(self):
        assert Firing("t1", "A", 3.0, 5.5).wait == 2.5
        assert Firing("tau", None, 5.0, 3.0).wait == 0.0


class TestValidation:
    def test_empty_delay_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalDelay(())

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalDelay((1.0, -2.0))

    @pytest.mark.parametrize("sample", [math.nan, math.inf])
    def test_fspn_json_with_a_non_finite_delay_rejected(self, sample):
        # json writes and reads NaN and Infinity; simulating such a delay never
        # ended (nan) or overflowed while building events (inf)
        net = PetriNet(("p0", "p1"), ("a",), (("p0", "a"), ("a", "p1")),
                       {"a": "A"}, {"p0": 1})
        doc = json.loads(fspn_to_json(StochasticPetriNet(
            net, {("p0", "a"): 1.0}, {"a": EmpiricalDelay((1.0,))})))
        doc["delay_distributions"]["a"] = [2.0, sample]
        with pytest.raises(ValueError, match=f"finite and nonnegative, got {sample!r}"):
            fspn_from_json(json.dumps(doc))

    def test_probabilities_must_sum_to_one(self):
        net = threshold_fspn().net
        with pytest.raises(ValueError, match="sum"):
            StochasticPetriNet(net, {("p1", "A"): 1.0, ("p2", "B"): 0.5,
                                     ("p2", "skipB"): 0.4, ("p3", "C"): 0.7,
                                     ("p3", "skipC"): 0.3}, {})

    def test_silent_transition_cannot_carry_delay(self):
        fspn = threshold_fspn()
        with pytest.raises(ValueError, match="silent"):
            StochasticPetriNet(fspn.net, dict(fspn.arc_probabilities),
                               {"skipB": EmpiricalDelay((1.0,))})


class TestWaitingStats:
    def test_mean_of_means(self):
        net = sequential_net()
        replays = [
            replay_trace(net, timed_trace([("A", 0), ("B", 5), ("C", 8)], "1")),
            replay_trace(net, timed_trace([("A", 0), ("B", 7), ("C", 10)], "2")),
        ]
        # A waits {0, 0}, B {5, 7} and C {3, 3}: the means 0, 6 and 3
        stats = waiting_time_stats(tally_replays(net, replays))
        assert stats.per_activity == pytest.approx({"A": 0.0, "B": 6.0, "C": 3.0})
        assert stats.mean_of_means == pytest.approx(3.0)

    def test_spec_arithmetic(self):
        # one account waiting {5, 7}, another {1}: mean of means is 3.5
        net = PetriNet(("p0", "p1", "p2"), ("tB", "tC"),
                       (("p0", "tB"), ("tB", "p1"), ("p1", "tC"), ("tC", "p2")),
                       {"tB": "B", "tC": "C"}, {"p0": 1})
        replays = [
            ReplayResult("1", (Firing("tB", "B", 0, 5), Firing("tC", "C", 0, 1)),
                         True),
            ReplayResult("2", (Firing("tB", "B", 0, 7),), True),
        ]
        stats = waiting_time_stats(tally_replays(net, replays))
        assert stats.per_activity == pytest.approx({"B": 6.0, "C": 1.0})
        assert stats.mean_of_means == pytest.approx(3.5)

    def test_single_wait(self):
        net = sequential_net()
        replays = [replay_trace(net, timed_trace([("A", 0), ("B", 42), ("C", 42)], "1"))]
        stats = waiting_time_stats(tally_replays(net, replays))
        assert stats.per_activity["B"] == 42

    def test_no_data_raises(self):
        with pytest.raises(StatsError):
            waiting_time_stats(tally_replays(sequential_net(), []))


def outcome(compute):
    """What ``compute()`` returns, or the type and message of what it raises."""
    try:
        return compute()
    except (EnrichmentError, StatsError, ChainConstructionError) as exc:
        return type(exc), str(exc)


def assert_tally_equals_reference(net, replays):
    """Enrichment, waiting stats and entropy from one tally equal, exactly,
    those of the reference's own walks, or fail with the same error."""
    tally = tally_replays(net, replays)
    assert tally.failures == [(r.trace_id, r.failed_index) for r in replays if not r.conforming]
    got = outcome(lambda: enrich_from_tally(net, tally))
    expected = outcome(lambda: reference_enrich(net, replays))
    if isinstance(expected, StochasticPetriNet):
        assert got.arc_probabilities == expected.arc_probabilities
        assert ({t: d.samples for t, d in got.delay_distributions.items()}
                == {t: d.samples for t, d in expected.delay_distributions.items()})
    else:
        assert got == expected
    assert (outcome(lambda: waiting_time_stats(tally))
            == outcome(lambda: reference_waiting_stats(replays)))
    for base in (None, 2):
        assert (outcome(lambda: replay_entropy(tally, base))
                == outcome(lambda: reference_entropy(net, replays, base)))


# Labels repeat: t1, t3 and t4 are all "a", and s routes p1 to p2 silently.
REPEATED_LABELS = PetriNet(
    ("p0", "p1", "p2", "p3"), ("t1", "t2", "t3", "s", "t4"),
    (("p0", "t1"), ("t1", "p1"), ("p1", "t2"), ("t2", "p2"), ("p1", "t3"), ("t3", "p2"),
     ("p1", "s"), ("s", "p2"), ("p2", "t4"), ("t4", "p3")),
    {"t1": "a", "t2": "b", "t3": "a", "s": None, "t4": "a"}, {"p0": 1})


class TestTally:
    @given(process_trees("abcdef", width=4), st.integers(0, 2**32 - 1),
           st.integers(1, 12), EDITS)
    @settings(max_examples=80, deadline=None)
    def test_equals_reference_walks(self, tree, seed, n_traces, edits):
        net = tree_to_net(tree)
        log = edited_log(uniform_fspn(net), seed, n_traces, edits, max_firings=60)
        assert_tally_equals_reference(net, replay_log(net, log))

    @given(st.lists(st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, 50)),
                             max_size=4), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_repeated_labels_equal_reference_walks(self, traces):
        log = make_log([[(a, sum(gap for _, gap in trace[:i + 1]))
                         for i, (a, _) in enumerate(trace)] for trace in traces])
        replays = replay_log(REPEATED_LABELS, log)
        assert_tally_equals_reference(REPEATED_LABELS, replays)

    def test_repeated_label_waits_pool_across_transitions(self):
        log = make_log([[("a", 0), ("a", 4), ("a", 10)], [("a", 1), ("b", 3), ("a", 8)]])
        tally = tally_replays(REPEATED_LABELS, replay_log(REPEATED_LABELS, log))
        assert tally.waits == {"t1": ("a", [0.0, 0.0]), "t3": ("a", [4.0]),
                               "t4": ("a", [6.0, 5.0]), "t2": ("b", [2.0])}
        assert waiting_time_stats(tally).per_activity["a"] == 3.0

    def test_waits_clamp_as_firing_wait(self):
        # a replayed trace never waits less than zero, as its timestamps never
        # decrease; hand-built firings may, or wait nan
        firings = (Firing("t1", "a", 5.0, 3.0), Firing("t3", "a", 1.0, math.nan))
        replays = [ReplayResult("x", firings, True)]
        tally = tally_replays(REPEATED_LABELS, replays)
        assert tally.waits == {"t1": ("a", [0.0]), "t3": ("a", [0.0])}
        assert [f.wait for f in firings] == [0.0, 0.0]
        assert_tally_equals_reference(REPEATED_LABELS, replays)

    def test_failures_in_replay_order(self):
        net = broadcast_net()  # A, then B and C in either order
        log = make_log([("A", "B", "B"), ("A", "C", "B"), ("B",), ("A", "B", "C")])
        tally = tally_replays(net, (replay_trace(net, trace) for trace in log.traces))
        assert tally.failures == [("case0", 2), ("case2", 0)]
        assert tally.conforming == 2
        assert sum(tally.fired.values()) == 6  # the failed replays' firings are not counted

    def test_moves_keep_first_seen_order(self):
        net = broadcast_net()
        replays = replay_log(net, make_log([("A", "C", "B"), ("A", "B", "C")]))
        tally = tally_replays(net, replays)
        after = [[f.transition for f in r.firings] for r in replays]
        assert after == [["A", "C", "B"], ["A", "B", "C"]]
        kernel = net.kernel
        a = kernel.succ[kernel.start, "A"]
        ac, ab = kernel.succ[a, "C"], kernel.succ[a, "B"]
        end = kernel.succ[ac, "B"]
        assert list(tally.moves.items()) == [
            ((kernel.start, a), 2), ((a, ac), 1), ((ac, end), 1), ((end, kernel.start), 2),
            ((a, ab), 1), ((ab, end), 1)]
        assert tally.fired == {"A": 2, "C": 2, "B": 2}


def same_float(a, b):
    """Equal bits, or both nan.  CPython gives a nan sum the sign of either
    nan operand, depending on whether the interpreter has specialised the
    addition yet, so even ``statistics.mean`` varies there from call to call."""
    return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)


EXTREMES = [math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
            2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]


class TestMeanMedian:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.floats() | st.sampled_from(EXTREMES), min_size=1, max_size=9))
    @example([1.7976931348623157e308, 1.7976931348623157e308])  # the float sum overflows
    @example([5e-324, 1.0, 3.0])  # a subnormal beside normals
    @example([0.1, 0.2, 0.3, 5e-324])
    @example([math.inf, -math.inf])
    @example([1.0, math.nan, -math.inf])
    def test_same_bits_as_statistics(self, values):
        assert same_float(mean(values), statistics.mean(values))


class TestSimulate:
    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            simulate(threshold_fspn(), -1)

    def test_zero_traces(self):
        assert len(simulate(threshold_fspn(), 0)) == 0

    def test_deterministic_given_seed(self):
        a = simulate(threshold_fspn(), 50, seed=3)
        b = simulate(threshold_fspn(), 50, seed=3)
        assert a == b

    def test_seed_changes_output(self):
        a = simulate(threshold_fspn(), 50, seed=3)
        b = simulate(threshold_fspn(), 50, seed=4)
        assert a != b

    def test_constant_delay_chain_identical_traces(self):
        net = sequential_net()
        fspn = StochasticPetriNet(
            net,
            {("p1", "A"): 1.0, ("p2", "B"): 1.0, ("p3", "C"): 1.0},
            {"A": EmpiricalDelay((1.0,)), "B": EmpiricalDelay((2.0,)),
             "C": EmpiricalDelay((3.0,))},
        )
        log = simulate(fspn, 5, seed=0)
        assert len({t.activities() for t in log}) == 1
        stamps = [e.timestamp for e in log.traces[0]]
        assert stamps == [1, 3, 6]

    def test_branch_frequency_concentrates(self):
        log = simulate(threshold_fspn(), 10_000, seed=11)
        frac_b = sum(1 for t in log if "B" in t.activities()) / 10_000
        assert 0.78 <= frac_b <= 0.82

    def test_simulated_traces_replay_conformingly(self):
        fspn = threshold_fspn()
        log = simulate(fspn, 200, seed=9)
        for result in replay_log(fspn.net, log):
            assert result.conforming

    def test_round_trip_recovers_probabilities(self):
        fspn = threshold_fspn()
        log = simulate(fspn, 10_000, seed=21)
        again = enrich(fspn.net, log)
        for arc, prob in fspn.arc_probabilities.items():
            assert again.arc_probabilities[arc] == pytest.approx(prob, abs=0.05)

    def test_max_firings_stops_loops(self):
        net = PetriNet(
            places=("p",), transitions=("t",),
            arcs=(("p", "t"), ("t", "p")), labels={"t": "a"},
            initial_marking={"p": 1},
        )
        fspn = StochasticPetriNet(net, {("p", "t"): 1.0},
                                  {"t": EmpiricalDelay((1.0,))})
        log = simulate(fspn, 1, seed=0, max_firings=25)
        assert len(log.traces[0]) == 25

    def test_uniform_fspn_shows_every_interleaving_of_a_par_block(self):
        net = tree_to_net(par(activity("a"), activity("b"), activity("c")))
        log = simulate(uniform_fspn(net), 300, seed=5)
        assert {t.activities() for t in log} == set(permutations("abc"))


def probabilities(weights):
    """Weights normalised as ``simulate`` normalises a place's arcs."""
    total = sum(weights)
    return [w / total for w in weights]


DRAWS = st.lists(st.one_of(
    st.tuples(st.just("choice"),
              st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.7, 1.0, 3.0]),
                       min_size=1, max_size=6).filter(any).map(probabilities)),
    st.tuples(st.just("integers"),
              st.one_of(st.sampled_from([1, 2, 12345, 2**31 + 11]),
                        st.integers(1, 2**32)))),
    max_size=40)


class TestStream:
    """The pure-Python stream ``simulate`` draws from against numpy's
    ``default_rng``: seeds of one, two and more than four uint32 words,
    probabilities with zeros and of length 1, and bounds of 1 (no draw),
    2**31 + 11 (rejection half the time) and up to 2**32."""

    @given(st.one_of(st.just(0), st.integers(2**32, 2**64 - 1),
                     st.integers(2**64, 2**200), st.integers(0, 2**32 - 1)),
           st.integers(0, 10**6), DRAWS)
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_default_rng(self, seed, trace_no, draws):
        rng, stream = np.random.default_rng((seed, trace_no)), _Stream((seed, trace_no))
        for kind, arg in draws:
            if kind == "choice":
                assert stream.choice(_cdf(arg)) == rng.choice(len(arg), p=arg)
            else:
                assert stream.integers(arg) == rng.integers(arg)

    @pytest.mark.parametrize("entropy", [(-1, 0), (5, -1), (-(2**70), 3)])
    def test_negative_entropy_rejected(self, entropy):
        with pytest.raises(ValueError):
            np.random.default_rng(entropy)
        with pytest.raises(ValueError):
            _Stream(entropy)

    def test_simulate_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            simulate(threshold_fspn(), 1, seed=-1)
        with pytest.raises(ValueError, match="seed"):  # checked before any draw
            simulate(threshold_fspn(), 0, seed=-1)


class TestFspnJson:
    def test_roundtrip(self):
        fspn = threshold_fspn()
        again = fspn_from_json(fspn_to_json(fspn))
        assert dict(again.arc_probabilities) == dict(fspn.arc_probabilities)
        assert again.delay_distributions["B"].samples == (30.0, 60.0, 120.0)
        assert again.net.places == fspn.net.places
