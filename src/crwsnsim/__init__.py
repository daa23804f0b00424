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
    ScenarioConfig,
    place_nodes,
)
from .energy import link_cost, rx_energy
from .clustering import (
    assign_members,
    elect_cluster_heads,
    election_threshold,
    eligible_mask,
    epoch_length,
)
from .routing import prim_mst
from .engine import (
    RoundOutcome,
    SimulationResult,
    run_round,
    run_simulation,
)
from .cli import ConfigError, parse_config

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
    "Nodes",
    "RoundOutcome",
    "ScenarioConfig",
    "SimulationResult",
    "assign_members",
    "elect_cluster_heads",
    "election_threshold",
    "eligible_mask",
    "epoch_length",
    "link_cost",
    "parse_config",
    "place_nodes",
    "prim_mst",
    "run_round",
    "run_simulation",
    "rx_energy",
]
