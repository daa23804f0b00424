"""Inter-head routing: Prim's minimum spanning tree over the head positions."""

from __future__ import annotations

import math

import numpy as np

_COMPACT = 32  # joins between compactions: each costs about a step; <= 31 dead slots add little


def prim_mst(xs: np.ndarray, ys: np.ndarray, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Minimum spanning tree of the finite points (``xs``, ``ys``) grown from ``start``.

    Returns the vertices in insertion order (``start`` first) and each
    vertex's parent (``start`` is its own); weight ties break toward the
    lower tree-side index, then the lower outside index. Dense O(n^2) Prim in
    O(n) memory on fixed slots in vertex order, each holding a complex point
    and a key: metres to the tree plus ``1j * parent``, the lowest tree index
    reaching it. Keys order lexicographically, so ``np.fmin`` with a joining
    vertex's ``np.hypot`` row keeps the shorter edge (then the lower parent)
    and ``argmin`` takes the lightest, on ties the first slot: the lowest
    vertex. A joined slot holds a nan point, which ``fmin`` skips, under key
    ``inf + inf j``; every ``_COMPACT`` joins a mask drops those slots.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise ValueError(f"xs and ys must have one shape, got {xs.shape} and {ys.shape}")
    if xs.ndim != 1:
        raise ValueError(f"positions must be one-dimensional, got shape {xs.shape}")
    n = xs.size
    if not (0 <= start < n):
        raise ValueError(f"start must index a vertex, got {start}")
    z = np.empty(n, dtype=complex)
    z.real, z.imag = xs, ys
    if not np.isfinite(z).all():  # a nan point marks a joined slot
        raise ValueError("positions must be finite")
    joined = complex(math.inf, math.inf)  # above every (metres, parent) key
    ids, key = np.arange(n), np.full(n, joined)
    key[start] = complex(0.0, start)  # the root joins first, as its own parent
    parent, order = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    diff, row = np.empty((2, n), dtype=complex)  # a joining point's offsets, then its keys
    dx, dy, metres, via = diff.real, diff.imag, row.real, row.imag
    for t in range(n):
        if t and not t % _COMPACT:  # drop the joined slots, keeping slot order
            live = key != joined
            z, key, ids = z[live], key[live], ids[live]
            diff, row = diff[:z.size], row[:z.size]
            dx, dy, metres, via = diff.real, diff.imag, row.real, row.imag
        s = key.argmin()
        order[t] = j = ids.item(s)
        parent[j] = key.item(s).imag
        p, z[s], key[s] = z.item(s), math.nan, joined
        np.subtract(p, z, out=diff)
        np.hypot(dx, dy, out=metres)
        via.fill(j)
        np.fmin(key, row, out=key)
    return order, parent


def prim_rows(z: np.ndarray, start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``prim_mst`` of each row of complex points ``z`` (nan: no vertex) from
    ``start[row]``, a join per row a step on flat views: per row, the vertices
    in insertion order and their parents, arbitrary past its vertex count."""
    rows, n = z.shape
    joined, at = complex(math.inf, math.inf), np.arange(rows)[:, None]
    key, ids = np.full(z.shape, joined), np.tile(np.arange(n), (rows, 1))
    key[at[:, 0], start] = 1j * start
    order, parent = np.empty((n, rows), dtype=np.intp), np.empty((n, rows))
    for t in range(n):
        if not t % _COMPACT:  # drop joined slots; the rest keep their order (t = 0: copy z)
            live = np.argsort(key == joined, axis=1, kind="stable")[:, :n - t]
            z, key, ids = z[at, live], key[at, live], ids[at, live]
            flat, diff, row = at[:, 0] * (n - t), *np.empty((2, rows, n - t), dtype=complex)
            zf, kf, idf = z.reshape(-1), key.reshape(-1), ids.reshape(-1)
        s = key.argmin(axis=1) + flat
        order[t], parent[t], p = idf.take(s), kf.take(s).imag, zf.take(s)
        zf.put(s, math.nan)
        kf.put(s, joined)
        np.subtract(p[:, None], z, out=diff)
        np.hypot(diff.real, diff.imag, out=row.real)
        np.copyto(row.imag, order[t][:, None])
        np.fmin(key, row, out=key)
    return order.T, np.where(parent.T < n, parent.T, -1).astype(np.intp)
