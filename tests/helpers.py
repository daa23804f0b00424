"""Shared test utilities and loop oracles: a node builder, a field-for-field
comparison of round records, a page-fault counter, and the oracles each
independent of the code under test:

- a brute-force spanning tree enumeration, for the greedy tree's weight;
- the original triple-loop Prim, for its tie rule;
- the original distance-matrix Prim, for the points form;
- the original trim-or-promote uniform election, for the ranking;
- the original dense nearest-head search, for member assignment;
- the original scalar link cost and per-head route decision, for the array
  cost kernel, and the loop head phase built on them, for the head phase;
- ``reference_run``, a whole run from the oracles above, one node at a time,
  charged by the one rule of a round: receptions first, then one send per
  alive node.
"""

import math
import resource
from dataclasses import fields
from itertools import combinations

import numpy as np

from crwsnsim import (
    CLUSTERING_UNIFORM,
    PROTOCOL_BASELINE,
    Nodes,
    RoundOutcome,
    election_threshold,
    eligible_mask,
    prim_mst,
    rx_energy,
)


def nodes_at(xs, ys, energy=0.5):
    """Nodes that never served as head, at the given coordinates; those with
    a positive ``energy`` are alive."""
    xs = np.asarray(xs, dtype=float)
    count = xs.size
    return Nodes(
        xs,
        np.asarray(ys, dtype=float),
        np.broadcast_to(np.asarray(energy, dtype=float), count).copy(),
        np.full(count, -1),
    )


def minor_faults(call):
    """Minor page faults the process takes while ``call()`` runs."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def same_outcome(a, b):
    """Whether two ``RoundOutcome`` records agree in every field, arrays by
    dtype and bytes."""
    for field in fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if not (isinstance(x, np.ndarray) and isinstance(y, np.ndarray)
                    and x.dtype == y.dtype and x.tobytes() == y.tobytes()):
                return False
        elif x != y:
            return False
    return True


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


def random_points(rng, size, extent=100.0):
    """Coordinates (xs, ys) of ``size`` random points in a square field."""
    pts = rng.uniform(0.0, extent, size=(size, 2))
    return pts[:, 0], pts[:, 1]


def distance_matrix(xs, ys):
    """Symmetric matrix of pairwise Euclidean distances, zero diagonal."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise ValueError(f"xs and ys must have one shape, got {xs.shape} and {ys.shape}")
    if not xs.size:
        raise ValueError("distance_matrix requires at least one position")
    return np.hypot(xs[:, None] - xs[None, :], ys[:, None] - ys[None, :])


def prim_edges(xs, ys, start=0):
    """``prim_mst``'s tree as (tree-side index, added index, weight) edges in
    insertion order, each weight the ``distance_matrix`` entry of its edge."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    order, parent = prim_mst(xs, ys, start)
    return [(int(p), int(j), float(np.hypot(xs[p] - xs[j], ys[p] - ys[j])))
            for p, j in zip(parent[order[1:]], order[1:])]


def matrix_prim(adj, start=0):
    """Dense Prim reading one row of a full distance matrix per added vertex.

    Returns edges as (tree-side index, added index, weight). Weight ties
    break toward the lower tree-side index, then the lower outside index.
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
    edges = []
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


def trim_promote_election(nodes, ch_probability, round_index, cluster_count, rng):
    """Uniform election in two branches: an over-election is trimmed to the
    highest-energy elected heads, an under-election is filled from the rest,
    eligible first, by descending energy; ties go to the lower id. Same
    arguments, draws, cooldown writes and return value as
    ``elect_cluster_heads`` in uniform mode."""
    alive = np.flatnonzero(nodes.energy > 0)
    eligible = eligible_mask(nodes, ch_probability, round_index)[alive]
    draws = rng.random(alive.size)
    elected = (draws < election_threshold(ch_probability, round_index)) & eligible
    heads = alive[elected]
    target = min(cluster_count, alive.size)
    if heads.size > target:
        heads = heads[np.lexsort((heads, -nodes.energy[heads]))[:target]]
    elif heads.size < target:
        pool, pool_eligible = alive[~elected], eligible[~elected]
        order = np.lexsort((pool, -nodes.energy[pool], ~pool_eligible))
        heads = np.concatenate((heads, pool[order[: target - heads.size]]))
    nodes.last_ch_round[heads] = round_index
    return np.sort(heads)


def dense_assign_members(nodes, cluster_heads):
    """Nearest head of every alive non-head node from the full members x heads
    distance matrix; ``argmin`` takes the first minimum, the lowest head id."""
    heads = np.sort(cluster_heads)
    is_member = nodes.energy > 0
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


def route_decision(params, m_bits, d_fc, d_parent, parent_id):
    """The cheaper of the direct link and the one-hop relay, ties direct, as
    (relay target or None, direct cost, relay cost); the root
    (``parent_id is None``) goes direct and records its direct cost as the
    relay cost too."""
    direct = scalar_link_cost(params, m_bits, d_fc)
    if parent_id is None:
        return None, direct, direct
    relay = scalar_link_cost(params, m_bits, d_parent)
    if direct <= relay:
        return None, direct, relay
    return parent_id, direct, relay


def loop_head_phase(nodes, heads, tree, config):
    """The head phase one sender at a time, two scalar costs per sender:
    same arguments and return value as ``engine._head_phase``. Unlike it,
    each sender also pays its send, and the parent it relays to the
    reception, in transmission order."""
    params = config.energy
    fc_dists = np.hypot(nodes.x[heads] - config.fc_x, nodes.y[heads] - config.fc_y).tolist()
    edges = []
    order = list(range(len(heads)))
    m_bits = 1
    if tree:
        root = min(order, key=lambda i: (fc_dists[i], i))
        edges = matrix_prim(distance_matrix(nodes.x[heads], nodes.y[heads]), start=root)
        order = [j for _, j, _ in reversed(edges)] + [root]
        m_bits = len(heads)
    uplink = {j: (i, w) for i, j, w in edges}
    carried = [1] * len(heads)
    delivered = 0
    rows = []
    for idx in order:
        parent, d_parent = uplink.get(idx, (None, 0.0))
        parent_id = None if parent is None else heads[parent]
        relay_to, direct, relay = route_decision(params, m_bits, fc_dists[idx], d_parent,
                                                 parent_id)
        rows.append((heads[idx], -1 if parent_id is None else parent_id,
                     -1 if relay_to is None else relay_to, direct, relay))
        if relay_to is None:
            nodes.energy[heads[idx]] -= direct
            delivered += carried[idx]
        else:
            nodes.energy[heads[idx]] -= relay
            nodes.energy[relay_to] -= rx_energy(params, m_bits)
            carried[parent] += carried[idx]
    if delivered != len(heads):
        raise RuntimeError("convergecast did not deliver every head's bit")
    return tuple(np.array(column) for column in zip(*rows))


def reference_run(config, nodes):
    """``run_simulation(config, nodes).outcomes`` by plain loops: the same
    draws, the election oracles (``trim_promote_election`` for uniform
    clustering, a per-node threshold test for nonuniform),
    ``dense_assign_members`` and ``loop_head_phase``. Each member pays its
    ``scalar_link_cost`` and its head the reception plus aggregation of its
    bit, in member-id order; then the head phase charges each sender and the
    parent it relays to; then every battery is floored at zero and the
    empty ones die. Mutates ``nodes`` as the engine does."""
    rng = np.random.default_rng(config.seed)
    params, energy, p = config.energy, nodes.energy, config.p
    outcomes = []
    for r in range(config.rounds):
        alive = [i for i in range(energy.size) if energy[i] > 0]
        if not alive:
            break
        start = [float(energy[i]) for i in alive]
        rng.integers(0, 2, size=len(alive))  # the engine's unread sensing draw
        if config.clustering == CLUSTERING_UNIFORM:
            heads = trim_promote_election(nodes, p, r, config.k, rng).tolist()
        else:
            eligible, threshold = eligible_mask(nodes, p, r), election_threshold(p, r)
            draws = rng.random(len(alive)).tolist()
            heads = [i for i, draw in zip(alive, draws) if eligible[i] and draw < threshold]
            nodes.last_ch_round[heads] = r
        with np.errstate(over="ignore"):  # a drained battery may reach -inf
            if heads:
                members, member_head = dense_assign_members(nodes, np.array(heads))
                for m, h in zip(members.tolist(), member_head.tolist()):
                    d = float(np.hypot(nodes.x[m] - nodes.x[h], nodes.y[m] - nodes.y[h]))
                    energy[m] -= scalar_link_cost(params, 1, d)
                    energy[h] -= rx_energy(params, 1) + params.e_aggregation
            tree = bool(heads) and config.protocol != PROTOCOL_BASELINE
            routes = loop_head_phase(nodes, np.array(heads or alive), tree, config)
        for i in alive:
            if energy[i] < 0.0:
                energy[i] = 0.0
        end = [float(energy[i]) for i in alive]
        deaths = [i for i, e in zip(alive, end) if e <= 0.0]
        outcomes.append(RoundOutcome(
            r, np.array(heads, dtype=np.intp), *routes,
            math.fsum(s - e for s, e in zip(start, end)), np.array(deaths, dtype=np.intp),
            math.fsum(end), len(alive) - len(deaths),
        ))
    return outcomes
