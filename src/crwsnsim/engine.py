"""The round loop: sensing, election, intra-cluster reporting, the
protocol-dependent delivery to the fusion centre, and death processing.

Each round runs, in order: every alive node senses one bit; heads are
elected and members attach to their nearest head; every member reports its
bit to its head (head pays reception plus aggregation per received bit);
heads then deliver to the fusion centre either directly (baseline) or along
a Prim spanning tree grown from the head nearest the fusion centre, with a
per-head direct-vs-relay cost decision (proposed); finally every battery is
floored at zero and the nodes that ran out of energy are marked dead. A
round that elects no head has no members either: every alive node delivers
its own bit directly, under both protocols, as a baseline head would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PROTOCOL_BASELINE, Nodes, ScenarioConfig, place_nodes
from .energy import link_cost, rx_energy
from .clustering import assign_members, elect_cluster_heads
from .routing import RouteDecision, build_adjacency, prim_mst


@dataclass
class RoundOutcome:
    """What happened in one round. ``round_index`` is 0-based;
    ``total_residual`` (J) and ``alive`` are taken after the death sweep."""

    round_index: int
    cluster_heads: list[int]
    mst_edges: list[tuple[int, int, float]]
    decisions: list[RouteDecision]
    energy_spent: float
    deaths: list[int]
    total_residual: float
    alive: int


@dataclass
class SimulationResult:
    config: ScenarioConfig
    outcomes: list[RoundOutcome]
    initial_energy: float

    @property
    def final_residual(self) -> float:
        return self.outcomes[-1].total_residual if self.outcomes else self.initial_energy

    @property
    def final_alive(self) -> int:
        return self.outcomes[-1].alive if self.outcomes else self.config.n_nodes

    @property
    def first_death_round(self) -> int | None:
        """1-based round of the first death, None if no node died."""
        return next((o.round_index + 1 for o in self.outcomes if o.deaths), None)


def _hypot(dx: np.ndarray, dy: np.ndarray) -> list[float]:
    """Distances (m) for coordinate differences, by scalar ``math.hypot``."""
    return list(map(math.hypot, dx.tolist(), dy.tolist()))


def _member_report_phase(
    nodes: Nodes, members: np.ndarray, member_head: np.ndarray, config: ScenarioConfig
) -> None:
    """Each member sends its bit to its head, which receives and aggregates it."""
    params = config.energy
    d = _hypot(nodes.x[members] - nodes.x[member_head], nodes.y[members] - nodes.y[member_head])
    nodes.energy[members] -= link_cost(params, 1, np.array(d))
    # one sequential subtraction per received bit, in member-id order
    np.subtract.at(nodes.energy, member_head, rx_energy(params, 1) + params.e_aggregation)


def _head_phase(
    nodes: Nodes, heads: list[int], tree: bool, config: ScenarioConfig
) -> tuple[list[tuple[int, int, float]], list[RouteDecision]]:
    """Every sender in ``heads`` delivers its table to the fusion centre,
    children first.

    Without ``tree`` (baseline heads, or every alive node in a zero-head
    round) each sender sends one bit directly, in ascending id. With it, the
    heads form Prim's tree grown from the head nearest the fusion centre
    (ties: lower index) and transmit in reverse insertion order, each with
    the full table width (one bit per head); a head relays when the link to
    its parent is strictly cheaper, and the parent pays the reception.
    Returns the tree edges as (parent head, child head, metres) in insertion
    order, and the decisions in transmission order.
    """
    params = config.energy
    fc = config.fc_position
    fc_dists = np.array(_hypot(nodes.x[heads] - fc.x, nodes.y[heads] - fc.y))
    parent = np.arange(len(heads))  # a sender without a parent is its own
    uplink = fc_dists.copy()  # metres to the parent, else to the fusion centre
    edges: list[tuple[int, int, float]] = []
    order, m_bits = parent.copy(), 1
    if tree:
        root = int(fc_dists.argmin())  # first minimum: distance ties to the lower index
        edges = prim_mst(build_adjacency(nodes.x[heads], nodes.y[heads]), start=root)
        added = [j for _, j, _ in edges]
        parent[added] = [i for i, _, _ in edges]
        uplink[added] = [w for _, _, w in edges]
        order, m_bits = np.array(added[::-1] + [root]), len(heads)
    # one cost call: every sender's direct link, then its uplink, in order; a
    # sender without a parent prices its direct link twice, so it goes direct
    costs = link_cost(params, m_bits, np.concatenate((fc_dists[order], uplink[order])))
    direct, relay = costs[:len(heads)], costs[len(heads):]
    relays = relay < direct  # cost ties favour the direct link
    ids = np.array(heads)
    senders, parents = ids[order], ids[parent[order]]
    if (relays & (senders == parents)).any():  # bits relayed to no one are lost
        raise RuntimeError("convergecast did not deliver every head's bit")
    # every child sends before its parent: receptions land before own sends
    np.subtract.at(nodes.energy, parents[relays], rx_energy(params, m_bits))
    nodes.energy[senders] -= np.where(relays, relay, direct)
    decisions = [RouteDecision(h, p if r else None, d, c) for h, p, r, d, c in zip(
        senders.tolist(), parents.tolist(), relays.tolist(), direct.tolist(), relay.tolist())]
    return [(heads[i], heads[j], w) for i, j, w in edges], decisions


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

    tree = bool(heads) and config.protocol != PROTOCOL_BASELINE
    with np.errstate(over="ignore"):  # a drained battery may reach -inf; the floor gives 0.0
        if heads:
            _member_report_phase(nodes, *assign_members(nodes, heads), config)
        # with no head elected, every alive node sends its own bit directly
        mst_edges, decisions = _head_phase(nodes, heads or alive.tolist(), tree, config)

    np.maximum(nodes.energy, 0.0, out=nodes.energy)
    end_energy = nodes.energy[alive]
    spent = math.fsum((start_energy - end_energy).tolist())
    dead = end_energy <= 0.0
    deaths = alive[dead]
    nodes.alive[deaths] = False
    return RoundOutcome(
        round_index, heads, mst_edges, decisions, spent, deaths.tolist(),
        math.fsum(end_energy[~dead].tolist()), alive.size - deaths.size,
    )


def run_simulation(config: ScenarioConfig, nodes: Nodes | None = None) -> SimulationResult:
    """Run ``config.rounds`` rounds (or until extinction), deterministically.

    Passing ``nodes`` bypasses the seeded uniform placement (and its RNG
    draws); the per-round stream then starts at the generator's origin.
    """
    rng = np.random.default_rng(config.rng_seed)
    if nodes is None:
        nodes = place_nodes(config, rng)
    initial = math.fsum(nodes.energy.tolist())

    outcomes: list[RoundOutcome] = []
    for r in range(config.rounds):
        if not nodes.alive.any():
            break
        outcomes.append(run_round(nodes, config, r, rng))
    return SimulationResult(config, outcomes, initial)
