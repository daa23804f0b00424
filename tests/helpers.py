"""Shared test utilities: a node builder, a brute-force spanning tree
oracle that is independent of the greedy implementation under test, the
original triple-loop Prim as the oracle of its tie rule, the original
dense nearest-head search as the oracle of member assignment, and the
original scalar link cost and per-head route decision as the oracles of
the array cost kernel and the head phase."""

import math
from itertools import combinations

import numpy as np

from crwsnsim import Nodes, RouteDecision, build_adjacency, prim_mst, rx_energy


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


def scalar_link_cost(params, m_bits, d):
    """One link's cost by Python float arithmetic: free space up to and at
    the crossover distance, multipath beyond it."""
    if m_bits < 1:
        raise ValueError(f"m_bits must be >= 1, got {m_bits}")
    if not math.isfinite(d) or d < 0.0:
        raise ValueError(f"d must be a finite non-negative distance, got {d!r}")
    per_bit = params.e_tx + params.e_aggregation
    if d <= params.crossover_distance:
        per_bit += params.e_fs * d * d
    else:
        per_bit += params.e_mp * d ** 4
    return m_bits * per_bit


def route_decision(params, m_bits, d_fc, d_parent, ch_id, parent_id):
    """The cheaper of the direct link and the one-hop relay, ties direct; the
    root (``parent_id is None``) goes direct and records its direct cost as
    ``relay_cost`` too."""
    direct = scalar_link_cost(params, m_bits, d_fc)
    if parent_id is None:
        return RouteDecision(ch_id, None, direct, direct)
    relay = scalar_link_cost(params, m_bits, d_parent)
    if direct <= relay:
        return RouteDecision(ch_id, None, direct, relay)
    return RouteDecision(ch_id, parent_id, direct, relay)


def loop_head_phase(nodes, heads, tree, config):
    """The head phase one sender at a time, two scalar costs per sender;
    same arguments, charges and return value as ``engine._head_phase``."""
    params = config.energy
    fc = config.fc_position
    fc_dists = [math.hypot(nodes.x[h] - fc.x, nodes.y[h] - fc.y) for h in heads]
    edges = []
    order = list(range(len(heads)))
    m_bits = 1
    if tree:
        root = min(order, key=lambda i: (fc_dists[i], i))
        edges = prim_mst(build_adjacency(nodes.x[heads], nodes.y[heads]), start=root)
        order = [j for _, j, _ in reversed(edges)] + [root]
        m_bits = len(heads)
    uplink = {j: (i, w) for i, j, w in edges}
    carried = [1] * len(heads)
    delivered = 0
    decisions = []
    for idx in order:
        parent, d_parent = uplink.get(idx, (None, 0.0))
        dec = route_decision(
            params, m_bits, fc_dists[idx], d_parent,
            heads[idx], None if parent is None else heads[parent],
        )
        decisions.append(dec)
        if dec.is_direct:
            nodes.energy[heads[idx]] -= dec.direct_cost
            delivered += carried[idx]
        else:
            nodes.energy[heads[idx]] -= dec.relay_cost
            nodes.energy[heads[parent]] -= rx_energy(params, m_bits)
            carried[parent] += carried[idx]
    if delivered != len(heads):
        raise RuntimeError("convergecast did not deliver every head's bit")
    return [(heads[i], heads[j], w) for i, j, w in edges], decisions
