"""The round loop. In a round every alive node senses one bit; heads are
elected and members attach to their nearest head; heads deliver to the
fusion centre directly (baseline) or along a Prim tree grown from the head
nearest it, each choosing direct or relay by cost (proposed); with no head,
every alive node sends its own bit directly. Receptions are charged first,
then one send per alive node; then batteries are floored at zero, and a node
at 0 is dead.

``run_round`` runs one round. ``run_simulation`` runs uniform clustering
round by round, as its election ranks the energies each round leaves. As
positions never move, a run of at most 512 nodes (``_TABLE`` pairs, a 2 MiB
table) and at least nodes / k rounds keeps each head's metres to every node
from the first round it heads, and takes each round's nearest heads, tree
and link metres from them; it prices each round's links as ``run_round``
does, so an unpriceable link raises the same error in the same round. Other
uniform runs call ``run_round``, as a row costs about what it saves the
first time. It plans non-uniform rounds (whose heads, members and trees read
no energy) in blocks: to the end of an epoch, or on through later epochs
while a bound on a round's spend proves no battery can empty; it charges
them round by round with ``run_round``'s code. A block ends after a round
that leaves a battery at zero: the generator goes back to its state after
that round's draws, each head's cooldown to its last round so far, and the
next block starts on the new alive set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import CLUSTERING_UNIFORM, PROTOCOL_BASELINE, Nodes, ScenarioConfig, place_nodes
from .energy import link_cost
from .clustering import (
    _CHUNK, _DENSE, assign_members, elect_alive, elect_block, elect_cluster_heads,
    election_threshold, epoch_length, nearest_heads,
)
from .routing import prim_matrix, prim_mst, prim_rows

_TABLE = 1 << 18  # most pair metres a uniform run keeps (2 MiB): runs of up to 512 nodes


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The senders ``ids``' delivery: without ``tree``, a bit each, direct, by
    ascending id; with it, a bit per head up Prim's tree from the head nearest
    the fusion centre, children first. Returns the senders' places in ``ids``,
    their parents' (own if none), each id's fusion-centre metres, the width."""
    xs, ys = nodes.x[ids], nodes.y[ids]
    fc_dists = np.hypot(xs - config.fc_x, ys - config.fc_y)
    if not tree:  # each its own parent
        return np.arange(ids.size), np.arange(ids.size), fc_dists, 1
    inserted, parent = prim_mst(xs, ys, int(fc_dists.argmin()))  # ties to the lower index
    return inserted[::-1], parent[inserted[::-1]], fc_dists, ids.size


def _price(nodes, params, members, member_head, ids, sent, up, fc, width):
    """``_price_links`` for senders ``ids[sent]`` and parents ``ids[up]``, over
    the ``np.hypot`` metres of members to their heads and of senders to parents."""
    x, y, senders, uplinked = nodes.x, nodes.y, ids[sent], ids[up]
    # hypot ignores the sign of the exactly negated differences: the tree's own weights
    return _price_links(
        params, np.hypot(x[members] - x[member_head], y[members] - y[member_head]), senders,
        uplinked, fc[sent], np.hypot(x[senders] - x[uplinked], y[senders] - y[uplinked]), width)


def _price_links(params, links, senders, uplinked, direct, uplinks, width):
    """One per-bit cost call for a round or block: members over ``links`` metres,
    then ``senders`` over ``direct`` metres to the fusion centre and ``uplinks``
    to parents ``uplinked`` (none where a sender is its own), times ``width``;
    ties go direct. Returns ``RoundOutcome``'s route arrays, the members'
    costs and the senders'."""
    m, s, orphan = links.size, senders.size, senders == uplinked
    costs = link_cost(params, np.concatenate((links, direct, np.where(orphan, direct, uplinks))))
    direct, relay = costs[m:m + s] * width, costs[m + s:] * width
    parents, relays = np.where(orphan, -1, uplinked), relay < direct
    if (relays & (parents < 0)).any():  # bits relayed to no one are lost
        raise RuntimeError("convergecast did not deliver every head's bit")
    route = (senders, parents, np.where(relays, parents, -1), direct, relay)
    return route, costs[:m], np.where(relays, relay, direct)


def _settle(nodes, params, round_index, alive, heads, member_head, route, width, sent_ids, sent):
    """Charge and record a round: receptions (member bits in member-id order,
    then relayed tables), then each alive node's send, unfloored; then the floor."""
    energy, relay_to, start = nodes.energy, route[2], nodes.energy[alive]
    np.subtract.at(energy, member_head, params.e_rx + params.e_aggregation)
    np.subtract.at(energy, relay_to[relay_to >= 0], params.e_rx * width)
    energy[sent_ids] -= sent
    np.maximum(energy, 0.0, out=energy)
    end = energy[alive]
    deaths = alive[end <= 0.0]
    return RoundOutcome(  # the dead read +0.0, which adds nothing to the residual
        round_index, heads, *route, math.fsum((start - end).tolist()), deaths,
        math.fsum(end.tolist()), alive.size - deaths.size)


def run_round(
    nodes: Nodes,
    config: ScenarioConfig,
    round_index: int,
    rng: np.random.Generator,
) -> RoundOutcome:
    """Execute one full round, mutating node state in place.

    One per-bit cost call prices every link of the round; then receptions
    are charged first, then one send per alive node. Charges are not
    floored as they land: a node drained mid-round still receives, transmits
    and relays, and ends the round at 0.0 before the death sweep.
    """
    _check_nodes(nodes, config)
    alive = np.flatnonzero(nodes.energy > 0)
    if not alive.size:
        raise ValueError("run_round requires at least one alive node")

    rng.integers(0, 2, size=alive.size)  # sensed bits: drawn to keep the RNG stream, never read
    heads = elect_cluster_heads(
        nodes, config.p, round_index, config.clustering, config.k, rng,
    )

    tree = heads.size > 0 and config.protocol != PROTOCOL_BASELINE
    members = member_head = alive[:0]
    with np.errstate(over="ignore"):  # a drained battery may reach -inf; the floor gives 0.0
        if heads.size:
            members, member_head = assign_members(nodes, heads)
        # with no head elected, every alive node sends its own bit directly
        ids = heads if heads.size else alive
        sent, up, fc, width = _head_phase(nodes, ids, tree, config)
        route, member_cost, cost = _price(
            nodes, config.energy, members, member_head, ids, sent, up, fc, width)
        return _settle(nodes, config.energy, round_index, alive, heads, member_head, route, width,
                       np.concatenate((members, route[0])), np.concatenate((member_cost, cost)))


def _round_bound(nodes: Nodes, config: ScenarioConfig) -> float:
    """Most joules a node spends in a round, plus 2^-20, or inf: for n = ``config.nodes``
    >= k heads, n - 1 member bits, k-bit tables from k - 1 children and a k-bit
    send over the diagonal of the box that holds the nodes and fusion centre."""
    n, e = config.nodes, config.energy
    with np.errstate(over="ignore", invalid="ignore"):  # no finite box or send: no bound
        try:
            send = link_cost(e, math.hypot(np.ptp(np.append(nodes.x, config.fc_x)),
                                           np.ptp(np.append(nodes.y, config.fc_y))))
        except (ValueError, OverflowError):
            return math.inf
    return ((n - 1) * (e.e_rx + e.e_aggregation) + n * (n - 1) * e.e_rx + n * send) * (1 + 2**-20)


def _run_block(nodes: Nodes, config: ScenarioConfig, first: int,
               rng: np.random.Generator, bound: float) -> list[RoundOutcome]:
    """The rounds from ``first`` to the end of their epoch, or on while the
    least alive battery outlasts ``bound`` joules a round, planned as one block
    and charged round by round; if a link cannot be priced, the first round
    runs alone through ``run_round``, to raise the error it raises."""
    alive, served, params = np.flatnonzero(nodes.energy > 0), nodes.last_ch_round, config.energy
    n, epoch, restart = alive.size, epoch_length(config.p), rng.bit_generator.state
    most = min(config.rounds, first + max(1, _CHUNK // n)) - first  # rounds, _CHUNK draws
    size, low = min(first // epoch * epoch + epoch - first, most), float(nodes.energy[alive].min())
    if bound < math.inf:  # on past the epoch while no battery can empty
        size = max(size, int(min(low / bound, most)))
    table, states, before = np.empty((size, n)), [], served[alive]  # draws, later sends
    for row in table:
        rng.integers(0, 2, size=n)  # sensed bits: drawn to keep the RNG stream, never read
        rng.random(out=row)
        states.append(rng.bit_generator.state)
    elected = elect_block(nodes, config.p, first, table)
    rows, cols = np.nonzero(elected)
    k = np.bincount(rows, minlength=size)  # heads a round, in slots by ascending id
    grid = np.full((size, max(k.max(), 1)), n)
    grid[rows, np.arange(rows.size) - (k.cumsum() - k)[rows]] = cols
    xa, ya = nodes.x[alive], nodes.y[alive]
    fc, tree = np.hypot(xa - config.fc_x, ya - config.fc_y), config.protocol != PROTOCOL_BASELINE
    widths = np.maximum(k, 1) if tree else np.ones_like(k)  # bits a send carries, a round
    with np.errstate(over="ignore"):  # a drained battery may reach -inf; the floor gives 0.0
        # members, and senders: a round's heads, or every alive node if it has none
        member = ~elected & (k > 0)[:, None]
        mrow, mcol = np.nonzero(member)
        srow, sc = np.nonzero(elected | (k == 0)[:, None])
        hb, mb, sb = ([0, *np.bincount(r, minlength=size).cumsum().tolist()]
                      for r in (rows, mrow, srow))  # where each round's entries start and end
        # one dense search, but assign_members' own from 64 heads or a chunk a round
        solo, near = (k >= 64) | (k * n > _CHUNK), np.zeros((size, n), dtype=np.int8)
        dense = np.flatnonzero((k > 0) & ~solo)
        if k[dense].max(initial=0) * dense.size * n > _DENSE:  # widest rows first, so that
            dense = dense[np.argsort(-k[dense], kind="stable")]  # each call pads to its own
        px, py, i = np.append(xa, math.inf), np.append(ya, math.inf), 0
        while i < dense.size:
            wide = k[dense[i:]].max()
            slots = grid[dense[i:i + max(1, _DENSE // (wide * n))], :wide, None]
            near[dense[i:i + slots.shape[0]]] = nearest_heads(xa, ya, px[slots], py[slots])
            i += slots.shape[0]
        member_head = alive[grid[mrow, near[member]]] if dense.size else np.empty_like(mcol)
        for t in np.flatnonzero(solo).tolist():
            member_head[mb[t]:mb[t + 1]] = assign_members(nodes, alive[grid[t, :k[t]]])[1]
        members, pc = alive[mcol], sc.copy()
        if tree:  # a tree's heads send in reverse insertion order
            z = np.append(xa + 1j * ya, complex(math.nan, math.nan))[grid]
            order, parent = prim_rows(z, np.append(fc, math.inf)[grid].argmin(axis=1))
            back = np.arange(grid.shape[1])[::-1] < k[:, None]  # each row's steps, last first
            at = np.flatnonzero(k[srow] > 0)
            sc[at], pc[at] = grid[rows, order[:, ::-1][back]], grid[rows, parent[:, ::-1][back]]
        try:
            route, member_cost, cost = _price(
                nodes, params, members, member_head, alive, sc, pc, fc, widths[srow])
        except (ValueError, OverflowError):
            rng.bit_generator.state, served[alive] = restart, before
            return [run_round(nodes, config, first, rng)]
        table[member], table[srow, sc] = member_cost, cost
        heads, outcomes = alive[cols], []
        for t in range(size):
            outcomes.append(_settle(
                nodes, params, first + t, alive, heads[hb[t]:hb[t + 1]],
                member_head[mb[t]:mb[t + 1]], [a[sb[t]:sb[t + 1]] for a in route], widths[t],
                alive, table[t]))
            if outcomes[-1].deaths.size:  # replan from the next round on the new alive set
                rng.bit_generator.state = states[t]
                served[alive] = np.where(  # each node's last head round so far
                    elected[:t + 1], np.arange(first, first + t + 1)[:, None], before).max(axis=0)
                break
    return outcomes


def _run_uniform(nodes: Nodes, config: ScenarioConfig,
                 rng: np.random.Generator) -> list[RoundOutcome]:
    """A uniform run's rounds, one by one as ``run_round`` runs them. Positions
    never move, so a node's ``np.hypot`` metres to every node are taken once, in
    the first round it heads: a member's head is the first least of the heads'
    rows at its column, the tree is ``prim_matrix`` on their metres, and every
    link's metres are read from the rows."""
    x, y, n, params, k = nodes.x, nodes.y, config.nodes, config.energy, config.k
    metres, kept = np.empty((n, n)), np.zeros(n, dtype=bool)  # rows filled as nodes first head
    tree = config.protocol != PROTOCOL_BASELINE
    finite = np.isfinite(x).all() and np.isfinite(y).all()  # else prim_mst raises, as in a round
    fc, epoch, outcomes = np.hypot(x - config.fc_x, y - config.fc_y), epoch_length(config.p), []
    thresholds = [election_threshold(config.p, r) for r in range(min(epoch, config.rounds))]
    with np.errstate(over="ignore"):  # a drained battery may reach -inf; the floor gives 0.0
        for r in range(config.rounds):
            is_member = nodes.energy > 0
            alive = np.flatnonzero(is_member)
            if not alive.size:
                break
            rng.integers(0, 2, size=alive.size)  # sensed bits: drawn to keep the RNG stream
            heads = elect_alive(nodes, alive, r, r // epoch * epoch, thresholds[r % epoch], k, rng)
            new = heads[~kept[heads]]
            if new.size:
                kept[new] = True
                with np.errstate(invalid="ignore"):  # inf - inf: the nan fails the pricing
                    metres[new] = np.hypot(x[new, None] - x, y[new, None] - y)
            is_member[heads] = False
            members = np.flatnonzero(is_member)
            member_head = heads[metres[heads].argmin(axis=0)[members]]  # heads ascend: lower id
            sent = up = np.arange(heads.size)
            if tree:  # heads send in reverse insertion order, root last
                start = int(fc[heads].argmin())
                order, parent = (prim_matrix(metres[heads][:, heads], start) if finite
                                 else prim_mst(x[heads], y[heads], start))
                sent, up = order[::-1], parent[order[::-1]]
            senders, uplinked, width = heads[sent], heads[up], heads.size if tree else 1
            route, member_cost, cost = _price_links(
                params, metres[member_head, members], senders, uplinked, fc[senders],
                metres[uplinked, senders], width)
            outcomes.append(_settle(
                nodes, params, r, alive, heads, member_head, route, width,
                np.concatenate((members, senders)), np.concatenate((member_cost, cost))))
    return outcomes


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
    uniform = config.clustering == CLUSTERING_UNIFORM
    # a head's row of metres costs about what it saves the first time; it pays when
    # nodes head again, about config.nodes / config.k rounds on
    if uniform and config.nodes ** 2 <= _TABLE and config.rounds * config.k >= config.nodes:
        outcomes = _run_uniform(nodes, config, rng)
    bound = _round_bound(nodes, config) if not uniform else math.inf
    while len(outcomes) < config.rounds and (nodes.energy > 0).any():
        if uniform:
            outcomes.append(run_round(nodes, config, len(outcomes), rng))
        else:
            outcomes += _run_block(nodes, config, len(outcomes), rng, bound)
    return SimulationResult(config, outcomes, initial, alive)
