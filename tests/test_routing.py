import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crwsnsim import prim_mst
from crwsnsim.routing import prim_matrix, prim_rows

from helpers import (
    distance_matrix,
    min_spanning_weight,
    prim_edges,
    random_points,
    scan_prim,
    spanning_tree_weights,
)


class TestPrimMst:
    def test_single_vertex(self):
        order, parent = prim_mst([4.0], [2.0])
        assert order.tolist() == [0]
        assert parent.tolist() == [0]
        assert prim_edges([4.0], [2.0]) == []

    def test_two_vertices(self):
        assert prim_edges([0.0, 7.0], [0.0, 0.0]) == [(0, 1, 7.0)]
        assert prim_edges([0, 3], [0, 4]) == [(0, 1, 5.0)]

    def test_pythagorean_pair(self):
        assert prim_edges([0, 3], [0, 4], start=1) == [(1, 0, 5.0)]

    def test_three_vertices(self):
        # legs of 10 m from vertex 0, a 10*sqrt(2) m hypotenuse between 1 and 2
        xs, ys = [0, 10, 0], [0, 0, 10]
        assert prim_edges(xs, ys, 0) == [(0, 1, 10.0), (0, 2, 10.0)]
        assert prim_edges(xs, ys, 1) == [(1, 0, 10.0), (0, 2, 10.0)]
        assert prim_edges(xs, ys, 2) == [(2, 0, 10.0), (0, 1, 10.0)]

    def test_returns_insertion_order_and_parents(self):
        # start at 2; vertex 1 joins first (30 m), then 0 hangs off it (10 m)
        order, parent = prim_mst([0.0, 10.0, 40.0], [0.0, 0.0, 0.0], start=2)
        assert order.tolist() == [2, 1, 0]
        assert parent.tolist() == [1, 2, 2]

    def test_four_vertices_against_enumeration(self):
        rng = np.random.default_rng(31)
        xs, ys = random_points(rng, 4)
        totals = spanning_tree_weights(distance_matrix(xs, ys))
        assert len(totals) == 16  # 4^(4-2) labeled spanning trees
        mst_total = sum(w for _, _, w in prim_edges(xs, ys))
        assert mst_total == pytest.approx(min(totals), rel=1e-9)

    def test_random_matrices_against_enumeration(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            size = int(rng.integers(2, 7))
            xs, ys = random_points(rng, size)
            mst_total = sum(w for _, _, w in prim_edges(xs, ys))
            assert mst_total == pytest.approx(
                min_spanning_weight(distance_matrix(xs, ys)), rel=1e-9)

    def test_start_vertex_does_not_change_total(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            size = int(rng.integers(2, 8))
            xs, ys = random_points(rng, size)
            totals = {
                round(sum(w for _, _, w in prim_edges(xs, ys, start)), 9)
                for start in range(size)
            }
            assert len(totals) == 1

    def test_tree_structure(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            size = int(rng.integers(1, 9))
            edges = prim_edges(*random_points(rng, size))
            assert len(edges) == size - 1
            parent = list(range(size))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for i, j, _ in edges:
                ri, rj = find(i), find(j)
                assert ri != rj, "cycle in spanning tree"
                parent[ri] = rj
            assert len({find(v) for v in range(size)}) == 1

    def test_equal_weight_ties_break_low_indices(self):
        assert prim_edges([0, 10, 0], [0, 0, 10]) == [(0, 1, 10.0), (0, 2, 10.0)]
        # from vertex 1 the 10 * sqrt(2) m edge to vertex 2 is never taken
        assert prim_edges([0, 10, 0], [0, 0, 10], 1) == [(1, 0, 10.0), (0, 2, 10.0)]

    def test_coincident_positions_allowed(self):
        edges = prim_edges([1, 1, 4], [1, 1, 5])
        assert len(edges) == 2
        assert sum(w for _, _, w in edges) == pytest.approx(5.0, rel=1e-12)

    def test_rejects_non_square(self):
        # a matrix, as an adjacency-matrix signature would take, is no point set
        with pytest.raises(ValueError):
            prim_mst(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_rejects_start_outside_the_points(self):
        for xs, start in (([], 0), ([1.0, 2.0], 2), ([1.0], -1)):
            with pytest.raises(ValueError) as err:
                prim_mst(xs, xs, start)
            assert str(err.value) == f"start must index a vertex, got {start}"

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError) as err:
            prim_mst([0.0, 3.0], [0.0])
        assert str(err.value) == "xs and ys must have one shape, got (2,) and (1,)"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", ["xs", "ys"])
    def test_rejects_non_finite_positions(self, bad, axis):
        # prim_mst marks a joined vertex with a nan point, so no input may hold one
        points = {"xs": [0.0, 1.0, 2.0], "ys": [0.0, 0.0, 0.0]}
        points[axis][1] = bad
        with pytest.raises(ValueError) as err:
            prim_mst(points["xs"], points["ys"])
        assert str(err.value) == "positions must be finite"

    def test_matches_tie_rule_oracle(self):
        # lowest tree index, then lowest outside index, on exact weight ties
        rng = np.random.default_rng(2718)
        for trial in range(300):
            size = int(rng.integers(1, 25))
            if trial % 2:  # a 3 x 3 integer lattice: many coincident and tied points
                xs, ys = rng.integers(0, 3, size=(2, size)).astype(float)
            else:
                xs, ys = random_points(rng, size)
            start = int(rng.integers(0, size))
            assert prim_edges(xs, ys, start) == scan_prim(distance_matrix(xs, ys), start)


@st.composite
def point_sets(draw, kinds=("random", "lattice", "coincident")):
    """Random, 10 m-lattice, coincident or far points, and a start vertex."""
    size = draw(st.integers(min_value=1, max_value=80))  # two frontier compactions
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(kinds))
    if kind == "random":
        xs, ys = random_points(rng, size)
    elif kind == "lattice":
        xs, ys = 10.0 * rng.integers(0, 6, size=(2, size))
    elif kind == "coincident":  # a few distinct sites, each holding several points
        sites = rng.uniform(0.0, 100.0, size=(2, max(1, size // 4)))
        xs, ys = sites[:, rng.integers(0, sites.shape[1], size)]
    else:  # far: 2e308 m overflows to inf, so every outside key can be infinite at once
        xs, ys = rng.choice([-1e308, 0.0, 1e308], size=(2, size))
    return xs, ys, draw(st.integers(min_value=0, max_value=size - 1))


class TestPrimOnPointsMatchesMatrix:
    """Prim on the points builds exactly the tree of Prim on the full
    distance matrix: the same insertion order and the same parents; so does
    ``prim_matrix``, the engine's Prim on a table of the points' metres."""

    @settings(max_examples=300, deadline=None)
    @given(point_sets())
    def test_equals_matrix_oracle(self, case):
        xs, ys, start = case
        order, parent = prim_mst(xs, ys, start)
        edges = scan_prim(distance_matrix(xs, ys), start)
        assert order.tolist() == [start] + [j for _, j, _ in edges]
        want = np.full(xs.size, start)
        for i, j, _ in edges:
            want[j] = i
        assert parent.tolist() == want.tolist()
        assert prim_edges(xs, ys, start) == edges  # the weights too, bit for bit
        table_order, table_parent = prim_matrix(distance_matrix(xs, ys), start)
        assert table_order.tolist() == order.tolist()
        assert table_parent.tolist() == parent.tolist()


def assert_equals_scan_prim(xs, ys, start):
    order, parent = prim_mst(xs, ys, start)
    edges = scan_prim(distance_matrix(xs, ys), start)
    assert order.tolist() == [start] + [j for _, j, _ in edges]
    assert parent[order].tolist() == [start] + [i for i, _, _ in edges]
    assert prim_edges(xs, ys, start) == edges


class TestPrimFrontier:
    """The compacted fixed-slot frontier and the lexicographic complex keys
    give the matrix oracle's tree on overflowing and engine-sized layouts
    (on either side of each compaction), touch no input and keep
    ``np.hypot`` as the distance kernel."""

    @settings(max_examples=200, deadline=None)
    @given(point_sets(kinds=("far",)))
    def test_overflowing_distances(self, case):
        with np.errstate(over="ignore"):
            assert_equals_scan_prim(*case)

    @pytest.mark.parametrize("size", [31, 32, 33, 64, 65, 100, 300])
    def test_engine_sized_random_layouts(self, size):
        rng = np.random.default_rng(size)
        xs, ys = random_points(rng, size)
        for start in (0, size // 2, size - 1, int(rng.integers(0, size))):
            assert_equals_scan_prim(xs, ys, start)

    def test_lattice_with_duplicates(self):
        xs, ys = np.random.default_rng(20).integers(0, 20, size=(2, 400)).astype(float)
        assert len(set(zip(xs, ys))) < 400  # coincident points and many exact ties
        for start in (0, 123, 399):
            assert_equals_scan_prim(xs, ys, start)

    def test_inputs_stay_unchanged(self):
        xs, ys = random_points(np.random.default_rng(8), 60)  # strided column views
        before = xs.tobytes(), ys.tobytes()
        prim_mst(xs, ys, 7)
        assert (xs.tobytes(), ys.tobytes()) == before
        lx, ly = xs.tolist(), ys.tolist()
        prim_mst(lx, ly, 7)
        assert (lx, ly) == (xs.tolist(), ys.tolist())

    def test_distance_kernel_is_hypot(self):
        # np.abs of a complex offset can differ from np.hypot in the last bit;
        # find two near points that the two kernels order differently
        rng = np.random.default_rng(0)
        for _ in range(100):
            px, py = rng.uniform(1.0, 100.0, size=(2, 1000))
            qx, qy = np.nextafter(px, math.inf), np.nextafter(py, -math.inf)
            hp, hq = np.hypot(0.0 - px, 0.0 - py), np.hypot(0.0 - qx, 0.0 - qy)
            ap, aq = np.abs((0.0 - px) + 1j * (0.0 - py)), np.abs((0.0 - qx) + 1j * (0.0 - qy))
            flips = np.flatnonzero((hp != hq) & (ap != aq) & ((hp < hq) != (ap < aq)))
            if flips.size:
                break
        else:
            pytest.skip("np.hypot and complex np.abs order every sampled pair alike here")
        i = int(flips[0])
        near = 1 if hp[i] < hq[i] else 2
        order, _ = prim_mst([0.0, px[i], qx[i]], [0.0, py[i], qy[i]], 0)
        assert order.tolist() == [0, near, 3 - near]


def assert_rows_equal_prim_mst(rows):
    """``prim_rows`` on the ``(xs, ys, start)`` rows, stacked with nan points
    after each row's own, grows each row's ``prim_mst`` and ``scan_prim`` tree."""
    z = np.full((len(rows), max(xs.size for xs, _, _ in rows)), complex(math.nan, math.nan))
    for r, (xs, ys, _) in enumerate(rows):
        z.real[r, :xs.size], z.imag[r, :xs.size] = xs, ys
    before = z.tobytes()
    order, parent = prim_rows(z, np.array([start for *_, start in rows]))
    assert z.tobytes() == before
    for r, (xs, ys, start) in enumerate(rows):
        want_order, want_parent = prim_mst(xs, ys, start)
        edges = scan_prim(distance_matrix(xs, ys), start)
        assert order[r, :xs.size].tolist() == want_order.tolist()
        assert want_order[1:].tolist() == [j for _, j, _ in edges]
        assert parent[r, :xs.size].tolist() == want_parent[want_order].tolist()
        assert parent[r, 1:xs.size].tolist() == [i for i, _, _ in edges]


class TestPrimRows:
    """Prim over a stack of ragged rows, one join per row a step, builds
    each row's ``prim_mst`` tree: the same insertion order and parents."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(point_sets(kinds=("random", "lattice", "coincident", "far")),
                    min_size=1, max_size=6))
    def test_each_row_equals_prim_mst(self, rows):
        with np.errstate(over="ignore"):  # far rows: 2e308 m overflows to inf
            assert_rows_equal_prim_mst([(np.asarray(xs, float), np.asarray(ys, float), start)
                                        for xs, ys, start in rows])

    @pytest.mark.parametrize("sizes", [(31, 32, 33), (64, 65), (65, 1, 33, 64)])
    def test_rows_around_the_compaction(self, sizes):
        rng = np.random.default_rng(sum(sizes))
        assert_rows_equal_prim_mst([(*random_points(rng, size), int(rng.integers(size)))
                                    for size in sizes])

    def test_lattice_ties_and_duplicate_points(self):
        rng = np.random.default_rng(21)
        rows = [(*(10.0 * rng.integers(0, 5, (2, size))), int(rng.integers(size)))
                for size in (80, 3, 40, 1, 66)]
        assert all(len(set(zip(xs, ys))) < xs.size for xs, ys, _ in rows if xs.size > 25)
        assert_rows_equal_prim_mst(rows)


def test_memory_is_linear_in_the_points():
    # a 2000 x 2000 distance matrix alone would be 30.5 MiB
    xs, ys = random_points(np.random.default_rng(3), 2000)
    tracemalloc.start()
    try:
        prim_mst(xs, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"prim_mst peaked at {peak / 2**20:.2f} MiB"
