"""Per-round stochastic cluster-head election and member assignment.

Election follows the rotating-threshold rule: each alive node draws a
uniform value and claims cluster-head duty when the draw falls below a
threshold that rises over the epoch. In non-uniform mode a node serves at
most once per ``round(1/p)``-round epoch while it stays alive, and exactly
once when the last round's threshold reaches 1 (as at p = 0.1). The uniform
mode then ranks the alive nodes to keep a fixed head count, so it re-elects
nodes that already served once fewer than k eligible nodes remain.
"""

from __future__ import annotations

import math

import numpy as np

from .model import CLUSTERING_UNIFORM, Nodes, check_probability

_CHUNK = 1 << 18  # candidates held at once by assign_members
_DENSE = _CHUNK >> 5  # candidates a dense nearest_heads call: each costs ~2.5x more at _CHUNK


def epoch_length(p: float) -> int:
    """Rounds per election epoch, ``round(1/p)``."""
    check_probability(p)
    return round(1.0 / p)


def election_threshold(p: float, round_index: int) -> float:
    """Probability that an eligible node claims head duty this round.

    Evaluates ``p / (1 - p * (r mod round(1/p)))`` clamped to 1.
    """
    offset = round_index % epoch_length(p)  # checks p first
    if round_index < 0:
        raise ValueError(f"round_index must be >= 0, got {round_index}")
    denominator = 1.0 - p * offset
    return p / denominator if denominator > p else 1.0


def elect_cluster_heads(
    nodes: Nodes,
    p: float,
    round_index: int,
    clustering: str,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run one round's election; returns head ids in ascending order.

    An alive node is eligible unless it served in the current epoch. Non-uniform
    mode keeps whatever the independent draws produce, including zero heads.
    Uniform mode ranks the alive nodes elected first, then eligible, then by
    descending energy and ascending id, and keeps the first ``k``: an
    over-election keeps its highest-energy heads, an under-election keeps them
    all and fills up from the rest. Every head enters the cooldown via
    ``last_ch_round``.
    """
    alive = np.flatnonzero(nodes.energy > 0)
    if not alive.size:
        raise ValueError("election requires at least one alive node")
    epoch = epoch_length(p)
    return elect_alive(nodes, alive, round_index, round_index // epoch * epoch,
                       election_threshold(p, round_index),
                       k if clustering == CLUSTERING_UNIFORM else None, rng.random(alive.size))


def elect_alive(nodes: Nodes, alive: np.ndarray, round_index: int, opens: int,
                threshold: float, k: int | None, draws: np.ndarray) -> np.ndarray:
    """``elect_cluster_heads`` over the ``alive`` ids, given the round's epoch's
    first round ``opens``, its ``threshold`` and the alive nodes' ``draws``: the
    draws' heads if ``k`` is None (non-uniform), else uniform mode's first ``k``."""
    eligible = nodes.last_ch_round[alive] < opens
    elected = (draws < threshold) & eligible
    heads = alive[elected]
    if k is not None:
        # lexsort is stable and alive ascends, so full ties go to the lower id
        rank = np.lexsort((-nodes.energy[alive], ~eligible, ~elected))
        heads = alive[rank[:k]]
    nodes.last_ch_round[heads] = round_index
    return np.sort(heads)


def elect_block(nodes: Nodes, alive: np.ndarray, p: float, first_round: int,
                draws: np.ndarray) -> np.ndarray:
    """Non-uniform ``elect_cluster_heads`` over the ``alive`` ids for rounds
    ``first_round`` on, a row of ``draws`` each, no death among them: in each
    epoch, a node that last served before it heads in the first round it would.
    Returns the (round, alive node) mask of heads; ``last_ch_round`` takes the last."""
    epoch, size = epoch_length(p), len(draws)
    served, rounds = nodes.last_ch_round[alive], np.arange(first_round, first_round + size)
    thresholds = np.array([election_threshold(p, r) for r in rounds[:epoch].tolist()])  # offsets
    opens = rounds // epoch * epoch  # each round's epoch's first round
    hit = (draws < thresholds[(rounds - first_round) % epoch, None]) & (served < opens[:, None])
    count = hit.cumsum(axis=0)
    if size > epoch - first_round % epoch:  # count a later epoch's hits from its first row
        start = np.maximum(opens - first_round, 0)
        count -= np.where(start[:, None] > 0, count[start - 1], 0)
    elected = hit & (count == 1)
    nodes.last_ch_round[alive] = np.where(elected, rounds[:, None], served).max(axis=0)
    return elected


def nearest_heads(mx: np.ndarray, my: np.ndarray, hx: np.ndarray, hy: np.ndarray) -> np.ndarray:
    """Index along the next-to-last axis of each member's nearest head (+inf
    pads) by ``np.hypot``, ties to the lower index. Squares rank; ``np.hypot``
    settles a near tie (within ``_ring_search``'s bound) or a nan."""
    with np.errstate(over="ignore"):  # an inf least square keeps every candidate
        dx, dy = mx - hx, my - hy
        sq = dx * dx + dy * dy
        near = sq <= sq.min(axis=-2, keepdims=True) * (1 + 2.0**-40) + 2.0**-1000
    best = near.argmax(axis=-2)
    if np.count_nonzero(near) != best.size:
        tied = np.nonzero(near.sum(axis=-2) != 1)
        best[tied] = np.hypot(*(np.moveaxis(d, -2, -1)[tied] for d in (dx, dy))).argmin(axis=-1)
    return best


def assign_members(nodes: Nodes, cluster_heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Attach every alive non-head node to its nearest head: ``nearest_in_rows``
    on one row. Returns the member ids in ascending order and each one's head id."""
    heads = np.sort(cluster_heads)
    if not heads.size:
        raise ValueError("assign_members requires at least one cluster head")
    is_member = nodes.energy > 0
    is_member[heads] = False
    members = np.flatnonzero(is_member)
    ids = np.concatenate((members, heads))  # the columns: members, then heads
    near = nearest_in_rows(nodes.x[ids], nodes.y[ids], np.arange(members.size, ids.size)[None],
                           np.full(1, heads.size), np.zeros_like(members), np.arange(members.size))
    return members, ids[near]


def nearest_in_rows(x: np.ndarray, y: np.ndarray, grid: np.ndarray, k: np.ndarray,
                    rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Each member's nearest head in a stack of rounds, a row each: row t's heads are
    columns ``grid[t, :k[t]]`` of ``x``, ``y``, ascending (entries past them at least
    ``x.size``); its members are the ``cols`` where ``rows`` is t, ``rows`` ascending.
    Returns the members' heads' columns. Below 64 heads a row takes ``nearest_heads``
    on every column, in calls of at most ``_DENSE`` candidates, rows widest first and
    a row too wide for one call by slices of columns; from 64, ``_ring_search``."""
    # the rows of 1 to 63 heads, widest first, so that a call pads to its own widest
    dense = np.argsort(-k, kind="stable")[np.count_nonzero(k >= 64):np.count_nonzero(k)]
    near, i = np.zeros((k.size, x.size), dtype=np.int8), 0  # each dense row's nearest slots
    px, py = np.append(x, math.inf), np.append(y, math.inf)  # grid's pads: +inf
    while i < dense.size:
        wide = k[dense[i]]
        group = dense[i:i + max(1, _DENSE // (wide * x.size))]
        hx, hy = (p.take(grid[group, :wide, None], mode="clip") for p in (px, py))
        for c in range(0, x.size, step := max(1, _DENSE // wide)):
            near[group, c:c + step] = nearest_heads(x[c:c + step], y[c:c + step], hx, hy)
        i += group.size
    out = grid[rows, near[rows, cols]] if dense.size else np.empty(rows.size, dtype=grid.dtype)
    for t in np.flatnonzero(k >= 64).tolist():  # over the dense gather's placeholders
        (at, to), heads = np.searchsorted(rows, [t, t + 1]), grid[t, :k[t]]
        out[at:to] = heads[_ring_search(x[cols[at:to]], y[cols[at:to]], x[heads], y[heads])]
    return out


def _ring_search(mx: np.ndarray, my: np.ndarray, hx: np.ndarray, hy: np.ndarray) -> np.ndarray:
    """Each member's nearest head from 64 or more, as its index in ``hx``, ``hy``;
    by ``np.hypot``, ties to the lower index. The heads are binned into square
    cells of about one head each (8 or more a side) and sorted by row-major
    cell. A member takes the nearest head in the 3x3 cells around its own if it
    is strictly closer than one cell side, else widens the ring (ring r accepts
    below r sides) while ``(2r+1)**2`` times the busiest cell's head count stays
    below k; whoever is left searches every head. A ring pass holds at most
    ``_CHUNK`` candidates: per occupied cell, one block of the ring's 2r+1 row
    slices. As a square ``dx*dx + dy*dy`` errs by at most 2**-51 relative plus
    2**-1073 and ``np.hypot`` by one ulp, only squares within 2**-40 relative
    plus 2**-1000 of the least (all, if it is inf) can hold the dense argmin;
    only those get ``np.hypot``. Squares are never negative or NaN, so their
    bits order as integers do, and the least is taken over those."""
    k, pending, nearest = hx.size, np.arange(mx.size), np.empty(mx.size, dtype=np.intp)
    side = max(np.ptp(hx), np.ptp(hy)) / math.isqrt(k)
    if 0.0 < side < math.inf:
        x0, y0 = hx.min(), hy.min()
        cx, cy = ((hx - x0) / side).astype(np.intp), ((hy - y0) / side).astype(np.intp)
        n_cols = cx.max() + 1
        cell = cy * n_cols + cx
        counts, order = np.bincount(cell), np.argsort(cell, kind="stable")
        ends = counts.cumsum()
        begins = ends - counts  # cell c holds heads order[begins[c] : ends[c]]
        depth, last = counts.max(), counts.size - 1
        cell = (np.clip((my - y0) / side, 0, cy.max()).astype(np.intp) * n_cols
                + np.clip((mx - x0) / side, 0, n_cols - 1).astype(np.intp))  # members', clamped
        ring = 1
        while pending.size and (2 * ring + 1) ** 2 * depth < k:
            # Ring row dy is one slice, cells c + dy*n_cols - ring .. + ring (past the edge,
            # other cells: extra candidates only). Heads nearer than `ring` sides are in it.
            mid, rejected = np.arange(-ring, ring + 1) * n_cols, []
            step = max(1, _CHUNK // ((2 * ring + 1) ** 2 * depth))
            for rows in (pending[i : i + step] for i in range(0, pending.size, step)):
                used = np.bincount(cell[rows]) > 0  # one candidate block per occupied cell
                centre = np.flatnonzero(used)[:, None] + mid  # middle cell of each ring row
                start = begins[np.clip(centre - ring, 0, last)]
                size = ends[np.clip(centre + ring, 0, last)] - start
                total, start, size = size.sum(axis=1), start.ravel(), size.ravel()
                block = order[np.repeat(start - size.cumsum() + size, size) + np.arange(size.sum())]
                own = used.cumsum()[cell[rows]] - 1  # a member's block: its cell's
                has = total[own] > 0  # reduceat would hand an empty segment the next element
                rejected.append(rows[~has])
                rows, n = rows[has], total[own[has]]
                first, count = n.cumsum() - n, n.sum()
                work = np.empty((6, count))  # one block, not six: reused whole, so no page faults
                at, member, dx, dy, sq, slack = *work[:2].view(np.intp), *work[2:]
                code = (total.cumsum() - total)[own[has]] - first + (np.arange(rows.size) << 32)
                code[1:] -= code[:-1] - 1  # steps whose cumsum is block offset + member * 2**32
                at[:], at[first] = 1, code
                np.right_shift(np.cumsum(at, out=at), 32, out=member)
                np.bitwise_and(at, 2**32 - 1, out=at)
                with np.errstate(over="ignore"):  # an inf least square keeps every candidate
                    for diff, m, h in ((dx, mx, hx), (dy, my, hy)):  # "clip": take won't buffer
                        np.subtract(m[rows].take(member, out=diff, mode="clip"),
                                    h[block].take(at, out=sq, mode="clip"), out=diff)
                    np.add(np.multiply(dx, dx, out=sq), np.multiply(dy, dy, out=slack), out=sq)
                    least = np.minimum.reduceat(sq.view(np.intp), first).view(float)  # int: faster
                    (least * (1 + 2.0**-40) + 2.0**-1000).take(member, out=slack, mode="clip")
                near = np.flatnonzero(sq <= slack)
                d = np.hypot(dx[near], dy[near])  # complex keys order lexicographically
                key = np.minimum.reduceat(d + 1j * block[at[near]], np.searchsorted(near, first))
                ok = key.real < (ring - 1e-9) * side  # margin: cell-index rounding
                nearest[rows[ok]] = key.imag[ok]
                rejected.append(rows[~ok])
            pending, ring = np.concatenate(rejected), ring + 1
    step = max(1, _DENSE // k)
    for rows in (pending[i : i + step] for i in range(0, pending.size, step)):  # argmin: lowest id
        nearest[rows] = nearest_heads(mx[rows], my[rows], hx[:, None], hy[:, None])
    return nearest
