"""Inter-head routing: Prim's minimum spanning tree over the head positions."""

from __future__ import annotations

import math

import numpy as np


def prim_mst(xs: np.ndarray, ys: np.ndarray, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Minimum spanning tree of the points (``xs``, ``ys``) grown from ``start``.

    Returns the vertices in insertion order (``start`` first) and each
    vertex's parent (``start`` is its own). Weight ties break toward the
    lower tree-side index, then the lower outside index. Dense O(n^2) Prim in
    O(n) memory: each outside vertex ``v`` holds one complex key, its metres
    to the tree plus ``1j * (parent * n + v)`` with ``parent`` the lowest tree
    index reaching it. NumPy orders complex numbers lexicographically, so one
    ``np.minimum`` against a joining vertex's row of ``np.hypot`` distances
    keeps the shorter edge (on equal metres the lower parent), and one
    ``argmin`` takes the lightest edge under the tie rule. The codes are exact
    in float64 while ``n * n < 2**53``. The outside vertices form a frontier
    that shrinks by swap-remove: a joining vertex's slot takes the last live
    slot's coordinates, key and id, so every step works on ``[:m]`` views of
    copies of the inputs.
    """
    xs, ys = np.array(xs, dtype=float), np.array(ys, dtype=float)
    if xs.shape != ys.shape:
        raise ValueError(f"xs and ys must have one shape, got {xs.shape} and {ys.shape}")
    if xs.ndim != 1:
        raise ValueError(f"positions must be one-dimensional, got shape {xs.shape}")
    n = xs.size
    if not (0 <= start < n):
        raise ValueError(f"start must index a vertex, got {start}")
    ids = np.arange(n, dtype=float)
    key = np.full(n, complex(math.inf, math.inf))  # above every (metres, code) key
    key[start] = complex(0.0, start * n + start)  # the root joins first, as its own parent
    cand = np.empty(n, dtype=complex)
    parent = np.empty(n, dtype=np.intp)
    order = np.empty(n, dtype=np.intp)
    live = key
    for m in range(n - 1, -1, -1):
        s = int(live.argmin())
        p, j = divmod(int(live[s].imag), n)
        order[n - 1 - m], parent[j] = j, p
        x, y = xs[s], ys[s]
        xs[s], ys[s], key[s], ids[s] = xs[m], ys[m], key[m], ids[m]
        live, row = key[:m], cand[:m]
        np.hypot(x - xs[:m], y - ys[:m], out=row.real)
        np.add(ids[:m], j * n, out=row.imag)
        np.minimum(live, row, out=live)
    return order, parent
