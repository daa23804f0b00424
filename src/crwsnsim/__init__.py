"""Round-based simulator comparing direct and MST-relayed cluster-head
reporting in spectrum-sensing wireless sensor networks."""

from .model import (
    CLUSTERING_MODES,
    CLUSTERING_NONUNIFORM,
    CLUSTERING_UNIFORM,
    PROTOCOL_BASELINE,
    PROTOCOL_PROPOSED,
    PROTOCOLS,
    EnergyParams,
    Nodes,
    Position,
    ScenarioConfig,
    place_nodes,
)
from .energy import crossover_distance, link_cost, rx_energy, tx_energy_linear
from .clustering import (
    assign_members,
    elect_cluster_heads,
    election_threshold,
    eligible_mask,
    epoch_length,
)
from .routing import (
    OrientedTree,
    RouteDecision,
    build_adjacency,
    orient_tree,
    prim_mst,
    route_decision,
)
from .engine import (
    MetricsRow,
    RoundOutcome,
    SimulationResult,
    no_ch_fallback,
    run_round,
    run_simulation,
)
from .cli import ConfigError, parse_config, read_metrics_csv

__version__ = "0.1.0"

__all__ = [
    "CLUSTERING_MODES",
    "CLUSTERING_NONUNIFORM",
    "CLUSTERING_UNIFORM",
    "PROTOCOLS",
    "PROTOCOL_BASELINE",
    "PROTOCOL_PROPOSED",
    "ConfigError",
    "EnergyParams",
    "MetricsRow",
    "Nodes",
    "OrientedTree",
    "Position",
    "RouteDecision",
    "RoundOutcome",
    "ScenarioConfig",
    "SimulationResult",
    "assign_members",
    "build_adjacency",
    "crossover_distance",
    "elect_cluster_heads",
    "election_threshold",
    "eligible_mask",
    "epoch_length",
    "link_cost",
    "no_ch_fallback",
    "orient_tree",
    "parse_config",
    "place_nodes",
    "prim_mst",
    "read_metrics_csv",
    "route_decision",
    "run_round",
    "run_simulation",
    "rx_energy",
    "tx_energy_linear",
]
