"""Discover stochastic Petri nets from repost logs and measure coordination."""

from .analysis import (
    ChainConstructionError,
    MEASURES,
    MeasureError,
    density,
    diameter,
    ks_two_sample,
    replay_entropy,
)
from .discovery import (
    Cut,
    ProcessTree,
    discover_tree,
    filter_dfg,
    find_cut,
    format_tree,
    reduce_net,
    tree_to_net,
)
from .eventlog import (
    Dfg,
    Event,
    EventLog,
    LogSchema,
    SchemaError,
    Trace,
    parse_log,
    preprocess,
    split_by_bot_score,
    write_log,
)
from .petri import (
    FiringError,
    Marking,
    NetDefinitionError,
    PetriNet,
    ReachabilityGraph,
    StateCapError,
    enabled,
    fire,
    is_free_choice,
    net_from_json,
    net_to_json,
    reachability_graph,
)
from .stochastic import (
    EmpiricalDelay,
    EnrichmentError,
    Firing,
    ReplayResult,
    ReplayTally,
    StatsError,
    StochasticPetriNet,
    WaitingStats,
    enrich,
    enrich_from_replays,
    enrich_from_tally,
    fspn_from_json,
    fspn_to_json,
    replay_log,
    replay_trace,
    simulate,
    tally_replays,
    waiting_time_stats,
)

__version__ = "0.1.0"
