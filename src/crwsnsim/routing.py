"""Inter-head routing: adjacency matrix, Prim's spanning tree, and the
per-head direct-vs-relay decision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import EnergyParams
from .energy import link_cost


def build_adjacency(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Symmetric matrix of pairwise Euclidean distances, zero diagonal."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if not xs.size:
        raise ValueError("build_adjacency requires at least one position")
    return np.hypot(xs[:, None] - xs[None, :], ys[:, None] - ys[None, :])


def prim_mst(adj: np.ndarray, start: int = 0) -> list[tuple[int, int, float]]:
    """Minimum spanning tree grown greedily from ``start``.

    Returns edges as (tree-side index, added index, weight). Weight ties
    break toward the lower tree-side index, then the lower outside index.
    Dense O(n^2) Prim: ``key[j]`` is the lightest edge from the tree to
    outside vertex ``j`` and ``parent[j]`` the lowest tree index reaching it.
    """
    adj = np.asarray(adj, dtype=float)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError(f"adjacency matrix must be square, got shape {adj.shape}")
    n = adj.shape[0]
    if not (0 <= start < n):
        raise ValueError(f"start must index a vertex, got {start}")
    outside = np.ones(n, dtype=bool)
    outside[start] = False
    key = adj[start].copy()
    parent = np.full(n, start)
    edges: list[tuple[int, int, float]] = []
    for _ in range(n - 1):
        lightest = np.flatnonzero(outside & (key == key[outside].min()))
        j = int(lightest[np.argmin(parent[lightest])])  # first minimum: lowest j
        edges.append((int(parent[j]), j, float(key[j])))
        outside[j] = False
        row = adj[j]
        better = outside & ((row < key) | ((row == key) & (parent > j)))
        key[better] = row[better]
        parent[better] = j
    return edges


@dataclass(frozen=True)
class RouteDecision:
    """One head's choice between the direct link and its tree parent."""

    ch_id: int
    relay_to: int | None  # None means direct to the fusion centre
    direct_cost: float
    relay_cost: float

    @property
    def is_direct(self) -> bool:
        return self.relay_to is None


def route_decision(
    params: EnergyParams,
    m_bits: int,
    d_fc: float,
    d_parent: float,
    ch_id: int,
    parent_id: int | None,
) -> RouteDecision:
    """Pick the cheaper of the direct link and the one-hop relay.

    ``parent_id is None`` marks the tree's root: it goes direct, prices only
    the direct link and records it as ``relay_cost`` too. Cost ties favour
    the direct link.
    """
    direct = link_cost(params, m_bits, d_fc)
    if parent_id is None:
        return RouteDecision(ch_id, None, direct, direct)
    relay = link_cost(params, m_bits, d_parent)
    if direct <= relay:
        return RouteDecision(ch_id, None, direct, relay)
    return RouteDecision(ch_id, parent_id, direct, relay)
