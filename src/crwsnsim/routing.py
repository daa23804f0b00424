"""Inter-head routing: Prim's minimum spanning tree over the head positions."""

from __future__ import annotations

import math

import numpy as np


def prim_mst(xs: np.ndarray, ys: np.ndarray, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Minimum spanning tree of the points (``xs``, ``ys``) grown from ``start``.

    Returns the vertices in insertion order (``start`` first) and each
    vertex's parent (``start`` is its own). Weight ties break toward the
    lower tree-side index, then the lower outside index. Dense O(n^2) Prim in
    O(n) memory: ``key[j]`` is the lightest edge from the tree to outside
    vertex ``j`` and ``parent[j]`` the lowest tree index reaching it, and each
    vertex's row of distances is computed when it joins the tree.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise ValueError(f"xs and ys must have one shape, got {xs.shape} and {ys.shape}")
    if xs.ndim != 1:
        raise ValueError(f"positions must be one-dimensional, got shape {xs.shape}")
    n = xs.size
    if not (0 <= start < n):
        raise ValueError(f"start must index a vertex, got {start}")
    outside = np.ones(n, dtype=bool)
    outside[start] = False
    key = np.hypot(xs[start] - xs, ys[start] - ys)
    key[start] = math.inf  # tree vertices keep an infinite key, so argmin skips them
    parent = np.full(n, start)
    order = np.full(n, start)
    for step in range(1, n):
        j = int(key.argmin())  # first minimum: lowest j
        lightest = key == key[j]
        if key[j] == math.inf or np.count_nonzero(lightest) > 1:  # a tie: lowest parent first
            lightest = np.flatnonzero(outside & lightest)
            j = int(lightest[np.argmin(parent[lightest])])
        order[step] = j
        outside[j] = False
        key[j] = math.inf
        row = np.hypot(xs[j] - xs, ys[j] - ys)
        better = outside & ((row < key) | ((row == key) & (parent > j)))
        key[better] = row[better]
        parent[better] = j
    return order, parent
