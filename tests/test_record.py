"""The value contract every checked record class gets from ``Record``."""

import pytest

from repostminer.cli import _CONFIG_KEYS, PipelineConfig
from repostminer.discovery import Cut, activity, seq
from repostminer.eventlog import Event, EventLog, LogSchema, Trace
from repostminer.reference_nets import broadcast_net, threshold_fspn
from repostminer.stochastic import EmpiricalDelay


def trace():
    return Trace("p1", (Event("p1", "A", 1), Event("p1", "B", 2)))


# Each class: a function that builds a new record of it, and its compared fields.
RECORDS = {
    "Trace": (trace, ("trace_id", "events")),
    "EventLog": (lambda: EventLog((trace(),)), ("traces",)),
    "LogSchema": (lambda: LogSchema(bot_score="score"),
                  ("trace_id", "activity", "timestamp", "bot_score", "delimiter",
                   "timestamp_format")),
    "PetriNet": (broadcast_net,
                 ("places", "transitions", "arcs", "labels", "initial_marking")),
    "EmpiricalDelay": (lambda: EmpiricalDelay((1.0, 2.5)), ("samples",)),
    "StochasticPetriNet": (threshold_fspn,
                           ("net", "arc_probabilities", "delay_distributions")),
    "ProcessTree": (lambda: seq(activity("a"), activity("b")),
                    ("kind", "label", "children")),
    "Cut": (lambda: Cut("seq", (frozenset("a"), frozenset("b"))), ("kind", "partition")),
    "PipelineConfig": (lambda: PipelineConfig(max_events=3, bot_score_column="score"),
                       tuple(_CONFIG_KEYS)),
}
UNHASHABLE = {"PetriNet", "StochasticPetriNet", "PipelineConfig"}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    make, fields = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert type(a).__name__ == name and a._fields == fields
    values = tuple(getattr(a, f) for f in fields)
    others = [build() for other, (build, _) in RECORDS.items() if other != name]
    assert all(a != other and other != a for other in others)
    assert a != values
    for field in fields:  # every field takes part in equality
        kept = getattr(b, field)
        setattr(b, field, object())
        assert a != b
        setattr(b, field, kept)
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(values)
    assert repr(a) == "{}({})".format(
        name, ", ".join(f"{f}={getattr(a, f)!r}" for f in fields))


def test_repr_is_keyword_form():
    assert repr(EmpiricalDelay((1.0,))) == "EmpiricalDelay(samples=(1.0,))"
    assert repr(activity("a")) == "ProcessTree(kind='activity', label='a', children=())"


def test_petri_net_equality_ignores_kernel():
    a, b = broadcast_net(), broadcast_net()
    assert a.kernel is not b.kernel
    b.kernel = None
    assert a == b
    assert "kernel" not in repr(a)
