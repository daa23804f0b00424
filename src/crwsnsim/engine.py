"""The round loop: sensing, election, intra-cluster reporting, the
protocol-dependent delivery to the fusion centre, and death processing.

Each round runs, in order: every alive node senses one bit; heads are
elected and members attach to their nearest head; heads deliver to the
fusion centre either directly (baseline) or along a Prim spanning tree
grown from the head nearest the fusion centre, with a per-head
direct-vs-relay cost decision (proposed); with no head elected, every alive
node sends its own bit directly. One block charges the round, receptions
first, then one send per alive node: heads receive their members' bits
(reception plus aggregation) and their children's relayed tables, then
members pay the link to their head and senders the link onward. Finally
every battery is floored at zero; a node is dead once its battery reads 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import PROTOCOL_BASELINE, Nodes, ScenarioConfig, place_nodes
from .energy import link_cost
from .clustering import assign_members, elect_cluster_heads
from .routing import prim_mst


@dataclass(eq=False)
class RoundOutcome:
    """What happened in one round. ``round_index`` is 0-based; the arrays
    from ``senders`` to ``relay_cost`` are in transmission order, with -1
    for no tree parent and for a direct send; ``total_residual`` (J) and
    ``alive`` are taken after the death sweep. Id arrays are ``intp``."""

    round_index: int
    cluster_heads: np.ndarray
    senders: np.ndarray
    parent: np.ndarray
    relay_to: np.ndarray
    direct_cost: np.ndarray
    relay_cost: np.ndarray
    energy_spent: float
    deaths: np.ndarray
    total_residual: float
    alive: int


@dataclass
class SimulationResult:
    config: ScenarioConfig
    outcomes: list[RoundOutcome] = field(repr=False)  # keeps the repr short for any run
    initial_energy: float
    initial_alive: int

    @property
    def final_residual(self) -> float:
        return self.outcomes[-1].total_residual if self.outcomes else self.initial_energy

    @property
    def final_alive(self) -> int:
        return self.outcomes[-1].alive if self.outcomes else self.initial_alive

    @property
    def first_death_round(self) -> int | None:
        """1-based round of the first death, None if no node died."""
        return next((o.round_index + 1 for o in self.outcomes if o.deaths.size), None)


def _check_nodes(nodes: Nodes, config: ScenarioConfig) -> None:
    """Reject ``nodes`` unless each of its arrays has shape ``(config.nodes,)``."""
    count = config.nodes
    if nodes.x.size != count:
        raise ValueError(f"nodes has {nodes.x.size} entries but config.nodes is {count}")
    for name, array in vars(nodes).items():  # the fields in order, cheaper than fields()
        if array.shape != (count,):
            raise ValueError(f"nodes.{name} has shape {array.shape}, not ({count},)")


def _head_phase(
    nodes: Nodes, ids: np.ndarray, tree: bool, config: ScenarioConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """The delivery tree of the senders ``ids``, children first.

    Without ``tree`` (baseline heads, or every alive node in a zero-head
    round) each sender sends one bit directly, in ascending id. With it, the
    heads form Prim's tree grown from the head nearest the fusion centre
    (ties: lower index) and transmit in reverse insertion order, each with
    the full table width (one bit per head). Reads positions only. Returns,
    in transmission order, the senders, their tree parents (-1 for none),
    their metres to the fusion centre and to their parent (to the fusion
    centre again without one), then the table width in bits.
    """
    xs, ys = nodes.x[ids], nodes.y[ids]
    fc_dists = np.hypot(xs - config.fc_x, ys - config.fc_y)
    order = parent = np.arange(ids.size)  # a sender without a parent is its own
    width = 1
    if tree:
        root = int(fc_dists.argmin())  # first minimum: distance ties to the lower index
        inserted, parent = prim_mst(xs, ys, root)
        order, width = inserted[::-1], ids.size
    parent = parent[order]
    orphan = parent == order
    # metres to the parent, else to the fusion centre; hypot ignores the sign
    # of the exactly negated differences, so these are the tree's own weights
    uplink = np.where(orphan, fc_dists[order],
                      np.hypot(xs[order] - xs[parent], ys[order] - ys[parent]))
    return ids[order], np.where(orphan, -1, ids[parent]), fc_dists[order], uplink, width


def run_round(
    nodes: Nodes,
    config: ScenarioConfig,
    round_index: int,
    rng: np.random.Generator,
) -> RoundOutcome:
    """Execute one full round, mutating node state in place.

    One per-bit cost call prices every link of the round; one block charges
    it, receptions first, then one send per alive node. Charges are not
    floored as they land: a node drained mid-round still receives, transmits
    and relays, and ends the round at 0.0 before the death sweep.
    """
    _check_nodes(nodes, config)
    alive = np.flatnonzero(nodes.energy > 0)
    if not alive.size:
        raise ValueError("run_round requires at least one alive node")
    start_energy = nodes.energy[alive]

    rng.integers(0, 2, size=alive.size)  # sensed bits: drawn to keep the RNG stream, never read
    heads = elect_cluster_heads(
        nodes, config.p, round_index, config.clustering, config.k, rng,
    )

    params, energy, x, y = config.energy, nodes.energy, nodes.x, nodes.y
    tree = heads.size > 0 and config.protocol != PROTOCOL_BASELINE
    members = member_head = alive[:0]
    with np.errstate(over="ignore"):  # a drained battery may reach -inf; the floor gives 0.0
        if heads.size:
            members, member_head = assign_members(nodes, heads)
        # with no head elected, every alive node sends its own bit directly
        senders, parents, fc_metres, uplink, width = _head_phase(
            nodes, heads if heads.size else alive, tree, config)
        # one bit per member to its head; each sender's table direct, then uplink
        costs = link_cost(params, np.concatenate((
            np.hypot(x[members] - x[member_head], y[members] - y[member_head]), fc_metres, uplink)))
        priced = costs[members.size:] * width
        direct, relay = priced[:senders.size], priced[senders.size:]
        # cost ties favour the direct link, so a sender without a parent goes direct
        relays = relay < direct
        if (relays & (parents < 0)).any():  # bits relayed to no one are lost
            raise RuntimeError("convergecast did not deliver every head's bit")
        relay_to = np.where(relays, parents, -1)
        # receptions: each member's bit plus aggregation to its head in member-id
        # order, then each relayed table in transmission order
        np.subtract.at(energy, member_head, params.e_rx + params.e_aggregation)
        np.subtract.at(energy, relay_to[relays], params.e_rx * width)
        # then each alive node's one send: members to their heads, senders onward
        energy[members] -= costs[:members.size]
        energy[senders] -= np.where(relays, relay, direct)

    np.maximum(energy, 0.0, out=energy)
    end_energy = energy[alive]
    spent = math.fsum((start_energy - end_energy).tolist())
    deaths = alive[end_energy <= 0.0]
    return RoundOutcome(  # the dead read +0.0, which adds nothing to the residual
        round_index, heads, senders, parents, relay_to, direct, relay, spent, deaths,
        math.fsum(end_energy.tolist()), alive.size - deaths.size,
    )


def run_simulation(config: ScenarioConfig, nodes: Nodes | None = None) -> SimulationResult:
    """Run ``config.rounds`` rounds (or until extinction), deterministically.

    Passed ``nodes`` (``config.nodes`` of them) replace the seeded placement and its
    RNG draws; the per-round stream then starts at the generator's origin.
    """
    rng = np.random.default_rng(config.seed)
    if nodes is None:
        nodes = place_nodes(config, rng)
    _check_nodes(nodes, config)
    initial, alive = math.fsum(nodes.energy.tolist()), int(np.count_nonzero(nodes.energy > 0))

    outcomes: list[RoundOutcome] = []
    for r in range(config.rounds):
        if not (nodes.energy > 0).any():
            break
        outcomes.append(run_round(nodes, config, r, rng))
    return SimulationResult(config, outcomes, initial, alive)
