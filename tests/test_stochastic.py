import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logutil import make_log
from repostminer.discovery import discover_tree, tree_to_net
from repostminer.eventlog import Event, EventLog, Trace
from repostminer.petri import PetriNet
from repostminer.reference_nets import broadcast_net, sequential_net, threshold_fspn
from repostminer.stochastic import (
    EmpiricalDelay,
    EnrichmentError,
    Firing,
    ReplayResult,
    StatsError,
    StochasticPetriNet,
    enrich,
    enrich_from_replays,
    fspn_from_json,
    fspn_to_json,
    replay_log,
    replay_trace,
    simulate,
    waiting_time_stats,
)


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
        result = replay_trace(broadcast_net(), Trace("e", ()))
        assert result.conforming and not result.firings


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


class TestMemoizedReplay:
    @given(st.sampled_from(["threshold", "flower"]), st.integers(0, 2**32 - 1),
           st.integers(1, 25),
           st.lists(st.tuples(st.integers(0, 24), st.integers(0, 20),
                              st.sampled_from(["unknown", "swap"])), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_memoized_equals_cold(self, model, seed, n_traces, edits):
        fspn = replay_models()[model]
        log = simulate(fspn, n_traces, seed=seed)
        traces = list(log.traces)
        for index, position, kind in edits:
            i = index % len(traces)
            traces[i] = inject(traces[i], [(position, kind)])
        log = EventLog(tuple(traces))
        memoized = replay_log(fspn.net, log)
        cold = [replay_trace(fspn.net, t) for t in log.traces]
        assert memoized == cold
        for trace, result in zip(log.traces, memoized):
            if any(e.activity == "stranger" for e in trace.events):
                assert not result.conforming


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
        # Only A is ever observed, so the choice at p2/p3 is never exercised.
        net = threshold_fspn().net
        log = EventLog((timed_trace([("A", 0)]),))
        # completion still fires the silent skips, so force an unvisited
        # place with a trace that stops before A
        unvisited = PetriNet(
            places=("q1", "q2"),
            transitions=("A", "B", "C"),
            arcs=(("q1", "A"), ("A", "q2"), ("q2", "B"), ("q2", "C")),
            labels={"A": "A", "B": "B", "C": "C"},
            initial_marking={"q1": 1},
        )
        fspn = enrich(unvisited, EventLog((timed_trace([("A", 0)], "t"),)))
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


class TestValidation:
    def test_empty_delay_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalDelay(())

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalDelay((1.0, -2.0))

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
            replay_trace(net, timed_trace([("A", 0), ("B", 5)], "1")),
            replay_trace(net, timed_trace([("A", 0), ("B", 7)], "2")),
            replay_trace(net, timed_trace([("A", 0), ("B", 0), ("C", 1)], "3")),
        ]
        # B waits {5, 7, 0}? no: trace 3's B waits 0; keep to the derived case
        stats = waiting_time_stats(replays[:2])
        assert stats.per_activity["B"].mean == pytest.approx(6.0)
        assert stats.mean_of_means == pytest.approx(3.0)

    def test_spec_arithmetic(self):
        # one account waiting {5, 7}, another {1}: mean of means is 3.5
        replays = [
            ReplayResult("1", (Firing("tB", "B", 0, 5), Firing("tC", "C", 0, 1)),
                         True),
            ReplayResult("2", (Firing("tB", "B", 0, 7),), True),
        ]
        stats = waiting_time_stats(replays)
        assert stats.per_activity["B"].mean == pytest.approx(6.0)
        assert stats.per_activity["B"].median == pytest.approx(6.0)
        assert stats.per_activity["C"].count == 1
        assert stats.mean_of_means == pytest.approx(3.5)

    def test_single_wait(self):
        net = sequential_net()
        replays = [replay_trace(net, timed_trace([("A", 0), ("B", 42)], "1"))]
        stats = waiting_time_stats(replays)
        assert stats.per_activity["B"].mean == 42

    def test_no_data_raises(self):
        with pytest.raises(StatsError):
            waiting_time_stats([])


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


class TestFspnJson:
    def test_roundtrip(self):
        fspn = threshold_fspn()
        again = fspn_from_json(fspn_to_json(fspn))
        assert dict(again.arc_probabilities) == dict(fspn.arc_probabilities)
        assert again.delay_distributions["B"].samples == (30.0, 60.0, 120.0)
        assert again.net.places == fspn.net.places
