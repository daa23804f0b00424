"""Per-round stochastic cluster-head election and member assignment.

Election follows the rotating-threshold rule: each alive node draws a
uniform value and claims cluster-head duty when the draw falls below a
threshold that rises over the epoch. A node serves at most once per
``round(1/p)``-round epoch while it stays alive, and exactly once when the
last round's threshold reaches 1 (as at p = 0.1). The uniform mode then trims
or promotes by residual energy to hit a fixed head count.
"""

from __future__ import annotations

import numpy as np

from .model import CLUSTERING_UNIFORM, Nodes, check_probability


def epoch_length(ch_probability: float) -> int:
    """Rounds per election epoch, ``round(1/p)`` and at least 1."""
    check_probability(ch_probability)
    return max(1, round(1.0 / ch_probability))


def election_threshold(ch_probability: float, round_index: int) -> float:
    """Probability that an eligible node claims head duty this round.

    Evaluates ``p / (1 - p * (r mod round(1/p)))`` clamped to 1.
    """
    check_probability(ch_probability)
    if round_index < 0:
        raise ValueError(f"round_index must be >= 0, got {round_index}")
    offset = round_index % epoch_length(ch_probability)
    denominator = 1.0 - ch_probability * offset
    if denominator <= 0.0:
        return 1.0
    return min(1.0, ch_probability / denominator)


def eligible_mask(nodes: Nodes, ch_probability: float, round_index: int) -> np.ndarray:
    """Eligible set: alive nodes that have not served in the current epoch."""
    epoch = epoch_length(ch_probability)
    return nodes.alive & (nodes.last_ch_round < (round_index // epoch) * epoch)


def elect_cluster_heads(
    nodes: Nodes,
    ch_probability: float,
    round_index: int,
    clustering: str,
    cluster_count: int,
    rng: np.random.Generator,
) -> list[int]:
    """Run one round's election; returns head ids in ascending order.

    Non-uniform mode keeps whatever the independent draws produce, including
    zero heads. Uniform mode trims an over-election to the ``cluster_count``
    highest-energy heads and fills an under-election by promoting alive
    candidates in descending energy order, preferring eligible nodes; ties
    break toward the lower node id. Every head, elected or promoted, enters
    the cooldown via ``last_ch_round``.
    """
    alive = np.flatnonzero(nodes.alive)
    if not alive.size:
        raise ValueError("election requires at least one alive node")
    eligible = eligible_mask(nodes, ch_probability, round_index)[alive]
    draws = rng.random(alive.size)
    elected = (draws < election_threshold(ch_probability, round_index)) & eligible
    heads = alive[elected]
    if clustering == CLUSTERING_UNIFORM:
        target = min(cluster_count, alive.size)
        energy = nodes.energy
        if heads.size > target:
            heads = heads[np.lexsort((heads, -energy[heads]))[:target]]
        elif heads.size < target:
            pool, pool_eligible = alive[~elected], eligible[~elected]
            order = np.lexsort((pool, -energy[pool], ~pool_eligible))
            heads = np.concatenate((heads, pool[order[: target - heads.size]]))
    nodes.last_ch_round[heads] = round_index
    return sorted(heads.tolist())


def assign_members(nodes: Nodes, cluster_heads: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Attach every alive non-head node to its nearest head.

    Returns the member ids in ascending order and each member's head id.
    Distance ties break toward the lower head id.
    """
    if not cluster_heads:
        raise ValueError("assign_members requires at least one cluster head")
    heads = np.sort(cluster_heads)
    is_member = nodes.alive.copy()
    is_member[heads] = False
    members = np.flatnonzero(is_member)
    dists = np.hypot(
        nodes.x[members][:, None] - nodes.x[heads][None, :],
        nodes.y[members][:, None] - nodes.y[heads][None, :],
    )
    return members, heads[dists.argmin(axis=1)]  # first minimum -> lowest head id
