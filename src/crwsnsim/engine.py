"""The round loop. In a round every alive node senses one bit; heads are
elected and members attach to their nearest head; heads deliver to the
fusion centre directly (baseline) or along a Prim tree grown from the head
nearest it, each choosing direct or relay by cost (proposed); with no head,
every alive node sends its own bit directly. Receptions are charged first,
then one send per alive node; then batteries are floored at zero, and a node
at 0 is dead.

``run_round`` runs one round; ``_round`` is its unchecked core. ``_run_seeds`` runs a
scenario under each of several seeds (``run_simulation`` is its one-seed case),
handing each round's outcome to its seed's sink as it settles (a seed with none is
charged and swept, not recorded), and returns each seed's end state. Uniform
clustering runs seed by seed, round by round, as its election ranks the energies each
round leaves. A run of at most 512 nodes (``_TABLE`` pairs, 2 MiB) and at least
nodes / k rounds takes each round's nearest heads, tree and link metres from each
head's metres to every node, kept from the first round it heads; other uniform runs
call ``_round``. Non-uniform rounds (whose heads, members and trees read no energy) are
planned in blocks: to the end of an epoch, or on while a bound on a round's spend
proves no battery can empty. Seeds advance together: a step plans the next block of
each seed that fits ``_CHUNK`` draws in all, with one head grid, one
``nearest_in_rows`` call a seed (dense or ring search by each round's heads, as in
``assign_members``), one tree pass and one pricing call. A sink-free block the bound
covers is charged by a few ``np.subtract.at`` calls in ``_settle``'s order, floored
once, unswept; if a battery reaches 0 all the same, the block is put back and, as any
other, charged round by round. Every path hands ``_settle`` members and senders apart.
A block ends after a round that leaves a battery at zero: its stream's cursor goes
back to just after that round's draws, each head's cooldown to its last round so far,
and its next block starts on the new alive set. A run's rounds price every link:
before them, ``_round_bound`` checks the longest.

After placement a run draws from one ``_Stream``: the generator's doubles,
drawn in refills, under a cursor (a word, a pending half). A round over ``a``
alive nodes takes ``a`` sensed bits, a 32-bit half of a 64-bit word each, low
half first (an odd count leaves the high half pending), then ``a`` doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .model import (CLUSTERING_UNIFORM, PROTOCOL_BASELINE, Nodes, ScenarioConfig,
                    _longest_link, place_nodes)
from .energy import link_cost
from .clustering import (
    _CHUNK, assign_members, elect_alive, elect_block, elect_cluster_heads, election_threshold,
    epoch_length, nearest_in_rows,
)
from .routing import prim_matrix, prim_mst, prim_rows

_TABLE = 1 << 18  # most pair metres a uniform run keeps (2 MiB): runs of up to 512 nodes
_REFILL = 1 << 14  # fewest words a stream draws at once (128 KiB)


class _Stream:
    """``run_round``'s generator after placement; ``cursor`` may go back to any word held."""

    def __init__(self, rng: np.random.Generator) -> None:  # placement leaves no half pending
        self.rng, self.words, self.base, self.cursor = rng, np.empty(0), 0, (0, 0)

    def integers(self, low: int, high: int, size: int) -> None:
        at, half = self.cursor  # as rng.integers(0, 2, size): a half-word a bit
        self.cursor = at + (size - half + 1) // 2, (size - half) % 2

    def random(self, size: int) -> np.ndarray:
        """The next ``size`` doubles, a word each; a refill draws ``_REFILL`` words or more."""
        (at, half), held = self.cursor, self.base + self.words.size
        if at + size > held:  # keep what is held from the cursor on, then draw on from held
            keep, self.base = self.words[at - self.base:], min(at, held)  # bits may pass held
            self.words = np.empty(keep.size + max(at + size - held, _REFILL))
            self.words[:keep.size] = keep
            self.rng.random(out=self.words[keep.size:])
        self.cursor = at + size, half
        return self.words[at - self.base:at + size - self.base]

    def rounds(self, n: int, count: int) -> np.ndarray:
        """The doubles of ``count`` rounds over ``n`` alive nodes, a row each, in one gather."""
        half, steps = self.cursor[1], np.arange(count) * n
        words = self.random((count * n - half + 1) // 2 + count * n)  # their bits and doubles
        self.cursor = self.cursor[0], (count * n - half) % 2
        return as_strided(words, (words.size - n + 1, n), words.strides * 2)[
            (steps + n - half + 1) // 2 + steps]


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
    """A run's outcomes, then its start and end state as ``_run_seeds`` returns them."""

    config: ScenarioConfig
    outcomes: list[RoundOutcome] = field(repr=False)  # keeps the repr short for any run
    initial_energy: float
    initial_alive: int
    final_residual: float = field(repr=False)  # the repr shows a run's start only
    final_alive: int = field(repr=False)
    first_death_round: int | None = field(repr=False)


def _check_nodes(nodes: Nodes, config: ScenarioConfig) -> None:
    """Reject ``nodes`` unless its arrays have shape ``(config.nodes,)``, positions finite."""
    count = config.nodes
    if nodes.x.size != count:
        raise ValueError(f"nodes has {nodes.x.size} entries but config.nodes is {count}")
    for name, array in vars(nodes).items():  # the fields in order, cheaper than fields()
        if array.shape != (count,):
            raise ValueError(f"nodes.{name} has shape {array.shape}, not ({count},)")
        if name in ("x", "y") and not np.isfinite(array).all():
            raise ValueError(f"nodes.{name} must hold finite positions")


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


def _price(x, y, params, members, member_head, senders, uplinked, direct, width):
    """``_price_links`` over the ``np.hypot`` metres, at positions ``x``, ``y``, of
    ``members`` to their heads and of ``senders`` to parents ``uplinked``."""
    # hypot ignores the sign of the exactly negated differences: the tree's own weights
    links, uplinks = (np.hypot(x[a] - x[b], y[a] - y[b])
                      for a, b in ((members, member_head), (senders, uplinked)))
    return _price_links(params, links, senders, uplinked, direct, uplinks, width)


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


def _settle(nodes, params, round_index, alive, heads, members, member_head, width,
            route, member_cost, cost, record=True):
    """Charge a round: receptions (member bits in member-id order, then relayed tables),
    then the sends of ``members`` and senders ``route[0]``, unfloored; then the floor. Returns
    its ``RoundOutcome``, or, if not ``record``, its deaths alone (reading ``route[:3:2]``)."""
    energy, relay_to, start = nodes.energy, route[2], nodes.energy[alive] if record else None
    np.subtract.at(energy, member_head, params.e_rx + params.e_aggregation)
    np.subtract.at(energy, relay_to[relay_to >= 0], params.e_rx * width)
    energy[members] -= member_cost
    energy[route[0]] -= cost
    np.maximum(energy, 0.0, out=energy)
    end = energy[alive]
    deaths = alive[end <= 0.0]
    if not record:
        return deaths
    return RoundOutcome(  # the dead read +0.0, which adds nothing to the residual
        round_index, heads, *route, math.fsum((start - end).tolist()), deaths,
        math.fsum(end.tolist()), alive.size - deaths.size)


def run_round(nodes: Nodes, config: ScenarioConfig, round_index: int,
              rng: np.random.Generator) -> RoundOutcome:
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
    return _round(nodes, config, round_index, rng, alive)


def _round(nodes, config, round_index, rng, alive, record=True):
    """``run_round`` over the ``alive`` ids, unchecked; ``record`` as ``_settle`` takes it."""
    rng.integers(0, 2, size=alive.size)  # sensed bits: drawn to keep the RNG stream, never read
    heads = elect_cluster_heads(nodes, config.p, round_index, config.clustering, config.k, rng)

    tree = heads.size > 0 and config.protocol != PROTOCOL_BASELINE
    members = member_head = alive[:0]
    with np.errstate(over="ignore"):  # a drained battery may reach -inf; the floor gives 0.0
        if heads.size:
            members, member_head = assign_members(nodes, heads)
        # with no head elected, every alive node sends its own bit directly
        ids = heads if heads.size else alive
        sent, up, fc, width = _head_phase(nodes, ids, tree, config)
        return _settle(nodes, config.energy, round_index, alive, heads, members, member_head,
                       width, *_price(nodes.x, nodes.y, config.energy, members, member_head,
                                      ids[sent], ids[up], fc[sent], width), record)


def _round_bound(nodes: Nodes, config: ScenarioConfig) -> float:
    """Most joules a node spends in a round, plus 2^-20: for n = ``config.nodes``
    >= k heads, n - 1 member bits, k-bit tables from k - 1 children and a k-bit
    send over the diagonal of the box that holds the nodes and fusion centre. No
    link is longer, so a ``ValueError`` names the diagonal if it cannot be priced."""
    n, e = config.nodes, config.energy
    span, priceable = _longest_link(e, np.append(nodes.x, config.fc_x),
                                    np.append(nodes.y, config.fc_y))
    if not priceable:
        raise ValueError(f"the nodes and fusion centre span a diagonal of {span!r} m, "
                         "a link length that link_cost cannot price")
    with np.errstate(over="ignore"):  # a send may cost inf; so may the bound
        send = link_cost(e, span)
    return ((n - 1) * (e.e_rx + e.e_aggregation) + n * (n - 1) * e.e_rx + n * send) * (1 + 2**-20)


def _flat(parts: list[np.ndarray], at: list[int] | None = None) -> np.ndarray:
    """``parts`` end to end, each plus its offset in ``at`` (if given); one part is itself."""
    return parts[0] if len(parts) == 1 else np.concatenate(
        [part + a for part, a in zip(parts, at)] if at else parts)


class _Seed:
    """A seed's nodes, stream, ``_round_bound`` and sink (None: its rounds are charged and
    swept, not recorded); its rounds run, the last one's alive ids and its first death round."""

    def __init__(self, nodes: Nodes, stream: _Stream, bound: float, sink: Callable | None) -> None:
        self.nodes, self.stream, self.bound, self.sink = nodes, stream, bound, sink
        self.done, self.last, self.died = 0, None, None

    def ran(self, round_index: int, alive: np.ndarray, settled) -> np.ndarray:
        """Count a round run over ``alive``; ``settled`` is its outcome, handed to the
        sink, or with no sink its deaths (as ``_settle`` returns them). Returns the deaths."""
        if self.sink is not None:
            self.sink(settled)
            settled = settled.deaths
        self.done, self.last = round_index + 1, alive
        if settled.size and self.died is None:
            self.died = self.done
        return settled

    def end(self, start: tuple[float, int]) -> tuple[float, int, int | None]:
        """As the last outcome holds them (``start`` if no round ran), the residual
        and alive count; and the 1-based round of the first death, None if none."""
        if self.last is None:
            return (*start, None)
        end = self.nodes.energy[self.last]  # as ``_settle`` sums and sweeps it
        return math.fsum(end.tolist()), int(end.size - np.count_nonzero(end <= 0.0)), self.died


def _run_block(config: ScenarioConfig, seeds: list[_Seed]) -> None:
    """Each seed's rounds from ``done`` to the end of their epoch, or on while its least
    alive battery outlasts ``bound`` joules a round, up to ``_CHUNK`` draws, as it plans
    them alone; the first seeds whose blocks fit ``_CHUNK`` draws in all run. Each elects
    from one gather of its draws; they share one grid of heads over their alive positions
    end to end, one ``nearest_in_rows`` call each, one tree pass and one pricing call. A
    sink-free block the bound covers is charged in a few calls, the rest round by round."""
    params, epoch, alive, plans, draws = config.energy, epoch_length(config.p), [], [], 0
    for seed in seeds:
        nodes, first, ids = seed.nodes, seed.done, np.flatnonzero(seed.nodes.energy > 0)
        most = min(config.rounds, first + max(1, _CHUNK // ids.size)) - first  # _CHUNK draws
        size = min(first // epoch * epoch + epoch - first, most)
        if seed.bound < math.inf:  # on past the epoch while no battery can empty
            size = max(size, int(min(float(nodes.energy[ids].min()) / seed.bound, most)))
        draws += size * ids.size
        if plans and draws > _CHUNK:  # this seed and the rest wait for a later step
            break
        alive.append(ids)  # a plan: the cursor and cooldowns, read before the draws, then heads
        plans.append((seed.stream.cursor, nodes.last_ch_round[ids], elect_block(
            nodes, ids, config.p, first, seed.stream.rounds(ids.size, size)),
            seed.sink is None and size * seed.bound < nodes.energy[ids].min()))  # then proved
    seeds = seeds[:len(plans)]
    # each seed's rows and positions start where the last seed's end
    start = [0, *accumulate(len(plan[2]) for plan in plans)]
    off = [0, *accumulate(ids.size for ids in alive)]
    hits = [np.nonzero(plan[2]) for plan in plans]
    rows, cols = _flat([hit[0] for hit in hits], start), _flat([hit[1] for hit in hits], off)
    k = np.bincount(rows, minlength=start[-1])  # heads a round, in slots by ascending id
    grid = np.full((start[-1], max(k.max(), 1)), off[-1])
    grid[rows, np.arange(rows.size) - (k.cumsum() - k)[rows]] = cols
    every = _flat(alive)
    xa, ya = (_flat([getattr(s.nodes, a)[ids] for s, ids in zip(seeds, alive)]) for a in "xy")
    fc, tree = np.hypot(xa - config.fc_x, ya - config.fc_y), config.protocol != PROTOCOL_BASELINE
    widths = np.maximum(k, 1) if tree else np.ones_like(k)  # bits a send carries, a round
    with np.errstate(over="ignore"):  # a drained battery may reach -inf; the floor gives 0.0
        # members, and senders: a round's heads, or every alive node if it has none
        masks = [~plan[2] & (k[a:b, None] > 0) for plan, a, b in zip(plans, start, start[1:])]
        found = [(*np.nonzero(mask), *np.nonzero(~mask)) for mask in masks]
        mrow, mcol, srow, sc = (_flat([f[i] for f in found], at)
                                for i, at in enumerate((start, off) * 2))
        hb, mb, sb = ([0, *np.bincount(r, minlength=start[-1]).cumsum().tolist()]
                      for r in (rows, mrow, srow))  # where each round's entries start and end
        member_head = _flat([nearest_in_rows(xa[p:q], ya[p:q], grid[a:b] - p, k[a:b], *f[:2])
                             for a, b, p, q, f in zip(start, start[1:], off, off[1:], found)], off)
        pc = sc.copy()
        if tree:  # a tree's heads send in reverse insertion order
            z = np.append(xa + 1j * ya, complex(math.nan, math.nan))[grid]
            order, parent = prim_rows(z, np.append(fc, math.inf)[grid].argmin(axis=1))
            back = np.arange(grid.shape[1])[::-1] < k[:, None]  # each row's steps, last first
            at = np.flatnonzero(k[srow] > 0)
            sc[at], pc[at] = grid[rows, order[:, ::-1][back]], grid[rows, parent[:, ::-1][back]]
        route, member_cost, cost = _price(
            xa, ya, params, mcol, member_head, sc, pc, fc[sc], widths[srow])
        node = np.append(every, -1)  # flat positions back to node ids; -1 stays -1
        route = [*(node[a] for a in route[:3]), *route[3:]]
        heads, members, member_head = every[cols], every[mcol], every[member_head]
        for seed, ids, plan, a, b in zip(seeds, alive, plans, start, start[1:]):
            (restart, before, elected, proved), first = plan, seed.done
            record = seed.sink is not None
            if proved:  # events before each round: member bits, relayed tables, member sends, sends
                energy, kept, lo = seed.nodes.energy, seed.nodes.energy[ids], a
                ev = 2 * np.array(mb) + sb + np.append(0, np.cumsum(route[2] >= 0))[sb]
                while lo < b:  # calls of whole rounds: at most 2^11 events, or one round
                    hi = min(b, max(lo + 1, int(np.searchsorted(ev, ev[lo] + (_CHUNK >> 7)) - 1)))
                    m, s, lo = slice(mb[lo], mb[hi]), slice(sb[lo], sb[hi]), hi
                    up, bit = route[2][s] >= 0, params.e_rx + params.e_aggregation
                    to, when, by = zip(  # in _settle's order, rows ascending: a stable sort keeps it
                        (member_head[m], mrow[m], np.full(m.stop - m.start, bit)),
                        (route[2][s][up], srow[s][up], params.e_rx * widths[srow[s][up]]),
                        (members[m], mrow[m], member_cost[m]), (route[0][s], srow[s], cost[s]))
                    order = np.argsort(np.concatenate(when), kind="stable")
                    np.subtract.at(energy, np.concatenate(to)[order], np.concatenate(by)[order])
                if (np.maximum(energy, 0.0, out=energy)[ids] > 0).all():  # none to sweep
                    seed.done, seed.last = first + b - a, ids
                    continue
                energy[ids] = kept  # the bound failed as a proof: charge round by round
            for t, g in enumerate(range(a, b)):
                m, s = slice(mb[g], mb[g + 1]), slice(sb[g], sb[g + 1])
                sends = [r[s] for r in route] if record else (route[0][s], None, route[2][s])
                if seed.ran(first + t, ids, _settle(
                        seed.nodes, params, first + t, ids, heads[hb[g]:hb[g + 1]], members[m],
                        member_head[m], widths[g], sends, member_cost[m], cost[s], record)).size:
                    # replan from the next round on the new alive set
                    seed.stream.cursor = restart  # then past round t; doubles leave a pending half
                    seed.stream.integers(0, 2, (t + 1) * ids.size)  # alone: the bits may go first
                    seed.stream.random((t + 1) * ids.size)
                    seed.nodes.last_ch_round[ids] = np.where(  # each node's last head round so far
                        elected[:t + 1], np.arange(first, first + t + 1)[:, None], before
                    ).max(axis=0)
                    break


def _run_uniform(config: ScenarioConfig, seed: _Seed) -> None:
    """A uniform seed's rounds, one by one as ``run_round`` runs them.
    Positions never move, so a node's ``np.hypot`` metres to every node are taken
    once, in the first round it heads: a member's head is the first least of the
    heads' rows at its column, the tree is ``prim_matrix`` on their metres, and
    every link's metres are read from the rows."""
    nodes, stream = seed.nodes, seed.stream
    x, y, n, params, k = nodes.x, nodes.y, config.nodes, config.energy, config.k
    metres, kept = np.empty((n, n)), np.zeros(n, dtype=bool)  # rows filled as nodes first head
    tree = config.protocol != PROTOCOL_BASELINE
    fc, epoch = np.hypot(x - config.fc_x, y - config.fc_y), epoch_length(config.p)
    thresholds = [election_threshold(config.p, r) for r in range(min(epoch, config.rounds))]
    with np.errstate(over="ignore"):  # a drained battery may reach -inf; the floor gives 0.0
        for r in range(config.rounds):
            is_member = nodes.energy > 0
            alive = np.flatnonzero(is_member)
            if not alive.size:
                break
            stream.integers(0, 2, alive.size)  # sensed bits: passed, never read
            heads = elect_alive(nodes, alive, r, r // epoch * epoch, thresholds[r % epoch], k,
                                stream.random(alive.size))
            new = heads[~kept[heads]]
            if new.size:
                kept[new] = True
                metres[new] = np.hypot(x[new, None] - x, y[new, None] - y)
            is_member[heads] = False
            members = np.flatnonzero(is_member)
            member_head = heads[metres[heads].argmin(axis=0)[members]]  # heads ascend: lower id
            sent = up = np.arange(heads.size)
            if tree:  # heads send in reverse insertion order, root last
                order, parent = prim_matrix(metres[heads][:, heads], int(fc[heads].argmin()))
                sent, up = order[::-1], parent[order[::-1]]
            senders, uplinked, width = heads[sent], heads[up], heads.size if tree else 1
            route, member_cost, cost = _price_links(
                params, metres[member_head, members], senders, uplinked, fc[senders],
                metres[uplinked, senders], width)
            seed.ran(r, alive, _settle(nodes, params, r, alive, heads, members, member_head,
                                       width, route, member_cost, cost, seed.sink is not None))


def _run_seeds(config: ScenarioConfig, seeds: list[int],
               sinks: list[Callable[[RoundOutcome], object] | None],
               layouts: list[Nodes | None] | None = None
               ) -> list[tuple[float, int, float, int, int | None]]:
    """``config`` under each of ``seeds`` (on its layout, if one is given, as
    ``run_simulation``'s ``nodes``), each seed's outcomes into its sink in round
    order; a seed whose sink is None is charged and swept, not recorded. Returns
    each seed's ``SimulationResult`` fields from ``initial_energy`` on. Every seed's
    nodes and longest link are checked before any seed runs a round. Non-uniform
    seeds advance together, a ``_run_block`` a step."""
    uniform, runs, starts = config.clustering == CLUSTERING_UNIFORM, [], []
    for seed, sink, nodes in zip(seeds, sinks, layouts or [None] * len(seeds)):
        rng = np.random.default_rng(seed)
        placed = place_nodes(config, rng) if nodes is None else nodes
        _check_nodes(placed, config)
        starts.append((math.fsum(placed.energy.tolist()), int(np.count_nonzero(placed.energy > 0))))
        runs.append(_Seed(placed, _Stream(rng), _round_bound(placed, config), sink))
    while not uniform and (live := [run for run in runs if run.done < config.rounds
                                    and (run.nodes.energy > 0).any()]):
        _run_block(config, live)
    # a head's row of metres costs about what it saves the first time; it pays when
    # nodes head again, about config.nodes / config.k rounds on
    table = config.nodes ** 2 <= _TABLE and config.rounds * config.k >= config.nodes
    for run in runs if uniform else ():
        if table:
            _run_uniform(config, run)
        while not table and run.done < config.rounds and (
                alive := np.flatnonzero(run.nodes.energy > 0)).size:
            run.ran(run.done, alive, _round(run.nodes, config, run.done, run.stream, alive,
                                            run.sink is not None))
    return [(*start, *run.end(start)) for start, run in zip(starts, runs)]


def run_simulation(config: ScenarioConfig, nodes: Nodes | None = None) -> SimulationResult:
    """Run ``config.rounds`` rounds (or until extinction), deterministically.

    Passed ``nodes`` (``config.nodes`` of them) replace the seeded placement and its
    RNG draws; the per-round stream then starts at the generator's origin.
    """
    outcomes: list[RoundOutcome] = []
    (state,) = _run_seeds(config, [config.seed], [outcomes.append], [nodes])
    return SimulationResult(config, outcomes, *state)
