"""Inter-head routing: adjacency matrix, Prim's spanning tree, and the
record of each head's direct-vs-relay decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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
    key[start] = math.inf  # tree vertices keep an infinite key, so argmin skips them
    parent = np.full(n, start)
    edges: list[tuple[int, int, float]] = []
    for _ in range(n - 1):
        j = int(key.argmin())  # first minimum: lowest j
        w = key[j]
        lightest = key == w
        if w == math.inf or np.count_nonzero(lightest) > 1:  # a tie: lowest parent first
            lightest = np.flatnonzero(outside & lightest)
            j = int(lightest[np.argmin(parent[lightest])])
        edges.append((int(parent[j]), j, float(w)))
        outside[j] = False
        key[j] = math.inf
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
