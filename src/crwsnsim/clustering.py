"""Per-round stochastic cluster-head election and member assignment.

Election follows the rotating-threshold rule: each alive node draws a
uniform value and claims cluster-head duty when the draw falls below a
threshold that rises over the epoch. A node serves at most once per
``round(1/p)``-round epoch while it stays alive, and exactly once when the
last round's threshold reaches 1 (as at p = 0.1). The uniform mode then trims
or promotes by residual energy to hit a fixed head count.
"""

from __future__ import annotations

import math

import numpy as np

from .model import CLUSTERING_UNIFORM, Nodes, check_probability

_CHUNK = 1 << 18  # candidates held at once by assign_members
_work = np.empty((6, 0))  # assign_members' ring-pass workspace, 6 x candidates


def epoch_length(ch_probability: float) -> int:
    """Rounds per election epoch, ``round(1/p)`` and at least 1."""
    check_probability(ch_probability)
    return max(1, round(1.0 / ch_probability))


def election_threshold(ch_probability: float, round_index: int) -> float:
    """Probability that an eligible node claims head duty this round.

    Evaluates ``p / (1 - p * (r mod round(1/p)))`` clamped to 1.
    """
    offset = round_index % epoch_length(ch_probability)  # checks the probability first
    if round_index < 0:
        raise ValueError(f"round_index must be >= 0, got {round_index}")
    denominator = 1.0 - ch_probability * offset
    if denominator <= 0.0:
        return 1.0
    return min(1.0, ch_probability / denominator)


def eligible_mask(nodes: Nodes, ch_probability: float, round_index: int) -> np.ndarray:
    """Eligible set: alive nodes that have not served in the current epoch."""
    epoch = epoch_length(ch_probability)
    return (nodes.energy > 0) & (nodes.last_ch_round < (round_index // epoch) * epoch)


def elect_cluster_heads(
    nodes: Nodes,
    ch_probability: float,
    round_index: int,
    clustering: str,
    cluster_count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run one round's election; returns head ids in ascending order.

    Non-uniform mode keeps whatever the independent draws produce, including
    zero heads. Uniform mode trims an over-election to the ``cluster_count``
    highest-energy heads and fills an under-election by promoting alive
    candidates in descending energy order, preferring eligible nodes; ties
    break toward the lower node id. Every head, elected or promoted, enters
    the cooldown via ``last_ch_round``.
    """
    alive = np.flatnonzero(nodes.energy > 0)
    if not alive.size:
        raise ValueError("election requires at least one alive node")
    eligible = eligible_mask(nodes, ch_probability, round_index)[alive]
    draws = rng.random(alive.size)
    elected = (draws < election_threshold(ch_probability, round_index)) & eligible
    heads = alive[elected]
    if clustering == CLUSTERING_UNIFORM:
        target = min(cluster_count, alive.size)
        if heads.size > target:
            heads = heads[np.lexsort((heads, -nodes.energy[heads]))[:target]]
        elif heads.size < target:
            pool, pool_eligible = alive[~elected], eligible[~elected]
            order = np.lexsort((pool, -nodes.energy[pool], ~pool_eligible))
            heads = np.concatenate((heads, pool[order[: target - heads.size]]))
    nodes.last_ch_round[heads] = round_index
    return np.sort(heads)


def assign_members(nodes: Nodes, cluster_heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Attach every alive non-head node to its nearest head.

    Returns the member ids in ascending order and each member's head id.
    Distances are the elementwise ``np.hypot`` of the coordinate differences;
    ties break toward the lower head id. From 64 heads (8 cells a side) the
    heads are binned into square cells of about one head each and sorted by
    row-major cell. A member takes the nearest head in the 3x3 cells around
    its own if it is strictly closer than one cell side, else widens the ring
    (ring r accepts below r sides) while ``(2r+1)**2`` times the busiest cell's
    head count stays below k; whoever is left searches every head. A ring
    pass holds at most ``_CHUNK`` candidates: per occupied cell, one block of
    the ring's 2r+1 row slices. Its six candidate-sized arrays are rows of
    ``_work``, kept between calls (at most about 6 * ``_CHUNK`` * 8 B): a repeat
    call allocates none, and the function is not reentrant across threads. As
    a square ``dx*dx + dy*dy`` errs by at most 2**-51 relative plus 2**-1073
    and ``np.hypot`` by one ulp, only squares within 2**-40 relative plus
    2**-1000 of the least (all, if it is inf) can hold the dense argmin; only
    those get ``np.hypot``. Squares are never negative or NaN, so their bits
    order as integers do, and the least is taken over those.
    """
    global _work
    heads = np.sort(cluster_heads)
    if not heads.size:
        raise ValueError("assign_members requires at least one cluster head")
    is_member = nodes.energy > 0
    is_member[heads] = False
    members = np.flatnonzero(is_member)
    mx, my, hx, hy = nodes.x[members], nodes.y[members], nodes.x[heads], nodes.y[heads]
    k, pending = heads.size, np.arange(members.size)
    nearest = np.empty(members.size, dtype=np.intp)
    side = max(np.ptp(hx), np.ptp(hy)) / math.isqrt(k) if k >= 64 else 0.0
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
                _work = _work if _work.shape[1] >= count else np.empty((6, count))
                at, member, dx, dy, sq, slack = *_work[:2, :count].view(np.intp), *_work[2:, :count]
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
                near = np.flatnonzero(np.less_equal(sq, slack, out=member.view(bool)[:count]))
                d = np.hypot(dx[near], dy[near])  # complex keys order lexicographically
                key = np.minimum.reduceat(d + 1j * block[at[near]], np.searchsorted(near, first))
                ok = key.real < (ring - 1e-9) * side  # margin: cell-index rounding
                nearest[rows[ok]] = key.imag[ok]
                rejected.append(rows[~ok])
            pending, ring = np.concatenate(rejected), ring + 1
    step = max(1, _CHUNK // k)
    for rows in (pending[i : i + step] for i in range(0, pending.size, step)):  # argmin: lowest id
        nearest[rows] = np.hypot(mx[rows, None] - hx, my[rows, None] - hy).argmin(axis=1)
    return members, heads[nearest]
