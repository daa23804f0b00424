"""Shared test utilities: a node builder, a brute-force spanning tree
oracle that is independent of the greedy implementation under test, the
original triple-loop Prim as the oracle of its tie rule, and the original
dense nearest-head search as the oracle of member assignment."""

from itertools import combinations

import numpy as np

from crwsnsim import Nodes


def nodes_at(xs, ys, energy=0.5):
    """Alive nodes that never served as head, at the given coordinates."""
    xs = np.asarray(xs, dtype=float)
    count = xs.size
    return Nodes(
        xs,
        np.asarray(ys, dtype=float),
        np.broadcast_to(np.asarray(energy, dtype=float), count).copy(),
        np.ones(count, dtype=bool),
        np.full(count, -1),
    )


def _is_spanning(n, edges):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merged = 0
    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            return False  # cycle
        parent[ri] = rj
        merged += 1
    return merged == n - 1


def spanning_tree_weights(weights):
    """Total weight of every labeled spanning tree of the complete graph."""
    n = len(weights)
    if n == 1:
        return [0.0]
    all_edges = list(combinations(range(n), 2))
    totals = []
    for subset in combinations(all_edges, n - 1):
        if _is_spanning(n, subset):
            totals.append(sum(weights[i][j] for i, j in subset))
    return totals


def min_spanning_weight(weights):
    return min(spanning_tree_weights(weights))


def random_point_matrix(rng, size, extent=100.0):
    """Distance matrix for ``size`` random points in a square field."""
    pts = rng.uniform(0.0, extent, size=(size, 2))
    return np.hypot(
        pts[:, 0][:, None] - pts[:, 0][None, :],
        pts[:, 1][:, None] - pts[:, 1][None, :],
    )


def triple_loop_prim(adj, start=0):
    """Prim by exhaustive scan: each step takes the lightest (tree, outside)
    pair, ties to the lower tree index, then the lower outside index."""
    n = len(adj)
    in_tree = [False] * n
    in_tree[start] = True
    edges = []
    for _ in range(n - 1):
        best = None
        for i in range(n):
            if not in_tree[i]:
                continue
            for j in range(n):
                if in_tree[j]:
                    continue
                w = adj[i][j]
                if best is None or w < best[2]:
                    best = (i, j, float(w))
        edges.append(best)
        in_tree[best[1]] = True
    return edges


def dense_assign_members(nodes, cluster_heads):
    """Nearest head of every alive non-head node from the full members x heads
    distance matrix; ``argmin`` takes the first minimum, the lowest head id."""
    heads = np.sort(cluster_heads)
    is_member = nodes.alive.copy()
    is_member[heads] = False
    members = np.flatnonzero(is_member)
    dists = np.hypot(
        nodes.x[members][:, None] - nodes.x[heads][None, :],
        nodes.y[members][:, None] - nodes.y[heads][None, :],
    )
    return members, heads[dists.argmin(axis=1)]
