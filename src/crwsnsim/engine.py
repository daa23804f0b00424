"""The round loop: sensing, election, intra-cluster reporting, the
protocol-dependent head-to-fusion-centre phase, death processing, and
metrics capture.

Each round runs, in order: every alive node senses one bit; heads are
elected and members attach to their nearest head; every member reports its
bit to its head (head pays reception plus aggregation per received bit);
heads then deliver to the fusion centre either directly (baseline) or along
the fusion-centre-oriented spanning tree with a per-head direct-vs-relay
cost decision (proposed); finally every battery is floored at zero and the
nodes that ran out of energy are marked dead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PROTOCOL_BASELINE, Nodes, ScenarioConfig, place_nodes
from .energy import link_cost, rx_energy
from .clustering import assign_members, elect_cluster_heads
from .routing import RouteDecision, build_adjacency, orient_tree, prim_mst, route_decision


@dataclass
class RoundOutcome:
    """What happened in one round. ``round_index`` is 0-based."""

    round_index: int
    cluster_heads: list[int]
    mst_edges: list[tuple[int, int, float]]
    decisions: list[RouteDecision]
    energy_spent: float
    deaths: list[int]


@dataclass
class MetricsRow:
    """Per-round aggregates. ``round_number`` is 1-based as reported in CSVs."""

    round_number: int
    total_residual: float
    alive: int
    ch_count: int
    first_death_round: int | None


@dataclass
class SimulationResult:
    config: ScenarioConfig
    metrics: list[MetricsRow]
    outcomes: list[RoundOutcome]
    initial_energy: float
    terminated_round: int | None = None  # 1-based round that could not run

    @property
    def final_residual(self) -> float:
        return self.metrics[-1].total_residual if self.metrics else self.initial_energy

    @property
    def final_alive(self) -> int:
        return self.metrics[-1].alive if self.metrics else self.config.n_nodes

    @property
    def first_death_round(self) -> int | None:
        return self.metrics[-1].first_death_round if self.metrics else None


def _fc_distances(nodes: Nodes, ids: list[int], config: ScenarioConfig) -> list[float]:
    """Distance (m) from each node in ``ids`` to the fusion centre."""
    fc = config.fc_position
    dx, dy = (nodes.x[ids] - fc.x).tolist(), (nodes.y[ids] - fc.y).tolist()
    return [math.hypot(a, b) for a, b in zip(dx, dy)]


def no_ch_fallback(nodes: Nodes, config: ScenarioConfig) -> float:
    """Zero-head round: every alive node sends its bit straight to the FC.

    Returns the energy charged.
    """
    alive = np.flatnonzero(nodes.alive).tolist()
    if not alive:
        raise ValueError("fallback requires at least one alive node")
    costs = [link_cost(config.energy, 1, d) for d in _fc_distances(nodes, alive, config)]
    nodes.energy[alive] -= costs
    return math.fsum(costs)


def _member_report_phase(
    nodes: Nodes, members: np.ndarray, member_head: np.ndarray, config: ScenarioConfig
) -> None:
    """Each member sends its bit to its head, which receives and aggregates it."""
    params = config.energy
    dx = (nodes.x[members] - nodes.x[member_head]).tolist()
    dy = (nodes.y[members] - nodes.y[member_head]).tolist()
    nodes.energy[members] -= [link_cost(params, 1, math.hypot(a, b)) for a, b in zip(dx, dy)]
    # one sequential subtraction per received bit, in member-id order
    np.subtract.at(nodes.energy, member_head, rx_energy(params, 1) + params.e_aggregation)


def _baseline_head_phase(
    nodes: Nodes, heads: list[int], config: ScenarioConfig, decisions: list[RouteDecision]
) -> None:
    """Every head sends its single aggregated bit directly to the FC."""
    for head, d_fc in zip(heads, _fc_distances(nodes, heads, config)):
        cost = link_cost(config.energy, 1, d_fc)
        decisions.append(RouteDecision(head, None, cost, cost))
        nodes.energy[head] -= cost


def _proposed_head_phase(
    nodes: Nodes, heads: list[int], config: ScenarioConfig, decisions: list[RouteDecision]
) -> list[tuple[int, int, float]]:
    """Spanning-tree convergecast of the heads' sensing tables.

    Every head transmits once, deepest heads first, carrying the full
    table width (one bit per head). A relaying head charges its parent
    the matching reception cost, and the parent forwards the child's bits
    with its own.
    """
    params = config.energy
    adjacency = build_adjacency(nodes.x[heads], nodes.y[heads])
    edges = prim_mst(adjacency, start=0)
    fc_dists = _fc_distances(nodes, heads, config)
    tree = orient_tree(len(heads), edges, fc_dists)
    m_bits = len(heads)
    carried = [1] * m_bits  # head bits in each head's table
    delivered = 0
    for idx in tree.order:
        head, parent = heads[idx], tree.parents[idx]
        is_root = parent is None
        dec = route_decision(
            params, m_bits, fc_dists[idx],
            fc_dists[idx] if is_root else float(adjacency[idx, parent]),
            is_root=is_root, ch_id=head, parent_id=None if is_root else heads[parent],
        )
        decisions.append(dec)
        if dec.is_direct:
            nodes.energy[head] -= dec.direct_cost
            delivered += carried[idx]
        else:
            nodes.energy[head] -= dec.relay_cost
            nodes.energy[heads[parent]] -= rx_energy(params, m_bits)
            carried[parent] += carried[idx]
    if delivered != m_bits:
        raise RuntimeError("convergecast did not deliver every head's bit")
    return [(heads[i], heads[j], w) for i, j, w in edges]


def run_round(
    nodes: Nodes,
    config: ScenarioConfig,
    round_index: int,
    rng: np.random.Generator,
) -> RoundOutcome:
    """Execute one full round, mutating node state in place.

    Charges are not floored as they land: a node drained mid-round still
    receives, transmits and relays, and ends the round at 0.0 before the
    death sweep.
    """
    alive = np.flatnonzero(nodes.alive)
    if not alive.size:
        raise ValueError("run_round requires at least one alive node")
    start_energy = nodes.energy[alive]

    rng.integers(0, 2, size=alive.size)  # sensed bits: drawn to keep the RNG stream, never read
    heads = elect_cluster_heads(
        nodes, config.ch_probability, round_index, config.clustering,
        config.cluster_count, rng,
    )

    decisions: list[RouteDecision] = []
    mst_edges: list[tuple[int, int, float]] = []
    with np.errstate(over="ignore"):  # a drained battery may reach -inf; the floor gives 0.0
        if not heads:
            no_ch_fallback(nodes, config)
        else:
            _member_report_phase(nodes, *assign_members(nodes, heads), config)
            if config.protocol == PROTOCOL_BASELINE:
                _baseline_head_phase(nodes, heads, config, decisions)
            else:
                mst_edges = _proposed_head_phase(nodes, heads, config, decisions)

    np.maximum(nodes.energy, 0.0, out=nodes.energy)
    end_energy = nodes.energy[alive]
    spent = math.fsum((start_energy - end_energy).tolist())
    deaths = alive[end_energy <= 0.0]
    nodes.alive[deaths] = False
    return RoundOutcome(round_index, heads, mst_edges, decisions, spent, deaths.tolist())


def run_simulation(config: ScenarioConfig, nodes: Nodes | None = None) -> SimulationResult:
    """Run ``config.rounds`` rounds (or until extinction), deterministically.

    Passing ``nodes`` bypasses the seeded uniform placement (and its RNG
    draws); the per-round stream then starts at the generator's origin.
    """
    rng = np.random.default_rng(config.rng_seed)
    if nodes is None:
        nodes = place_nodes(config, rng)
    initial = math.fsum(nodes.energy.tolist())

    metrics: list[MetricsRow] = []
    outcomes: list[RoundOutcome] = []
    first_death: int | None = None
    terminated: int | None = None
    for r in range(config.rounds):
        if not nodes.alive.any():
            terminated = r + 1
            break
        outcome = run_round(nodes, config, r, rng)
        if first_death is None and outcome.deaths:
            first_death = r + 1
        residual = math.fsum(nodes.energy[nodes.alive].tolist())
        alive_count = int(np.count_nonzero(nodes.alive))
        metrics.append(
            MetricsRow(r + 1, residual, alive_count, len(outcome.cluster_heads), first_death)
        )
        outcomes.append(outcome)
    return SimulationResult(config, metrics, outcomes, initial, terminated)
