import math

import numpy as np
import pytest

from crwsnsim import build_adjacency, prim_mst

from helpers import (
    min_spanning_weight,
    random_point_matrix,
    spanning_tree_weights,
    triple_loop_prim,
)


class TestBuildAdjacency:
    def test_single_vertex(self):
        adj = build_adjacency([4.0], [2.0])
        assert adj.shape == (1, 1)
        assert adj[0, 0] == 0.0

    def test_pythagorean_pair(self):
        adj = build_adjacency([0, 3], [0, 4])
        assert adj[0, 1] == 5.0
        assert adj[1, 0] == 5.0

    def test_three_vertices(self):
        adj = build_adjacency([0, 10, 0], [0, 0, 10])
        assert adj[0, 1] == pytest.approx(10.0, rel=1e-12)
        assert adj[0, 2] == pytest.approx(10.0, rel=1e-12)
        assert adj[1, 2] == pytest.approx(10.0 * math.sqrt(2.0), rel=1e-12)
        assert np.allclose(adj, adj.T)
        assert np.all(np.diag(adj) == 0.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError) as err:
            build_adjacency([0.0, 3.0], [0.0])
        assert str(err.value) == "xs and ys must have one shape, got (2,) and (1,)"


class TestPrimMst:
    def test_single_vertex(self):
        assert prim_mst(np.zeros((1, 1))) == []

    def test_two_vertices(self):
        adj = np.array([[0.0, 7.0], [7.0, 0.0]])
        assert prim_mst(adj) == [(0, 1, 7.0)]

    def test_four_vertices_against_enumeration(self):
        rng = np.random.default_rng(31)
        adj = random_point_matrix(rng, 4)
        totals = spanning_tree_weights(adj)
        assert len(totals) == 16  # 4^(4-2) labeled spanning trees
        mst_total = sum(w for _, _, w in prim_mst(adj))
        assert mst_total == pytest.approx(min(totals), rel=1e-9)

    def test_random_matrices_against_enumeration(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            size = int(rng.integers(2, 7))
            adj = random_point_matrix(rng, size)
            mst_total = sum(w for _, _, w in prim_mst(adj))
            assert mst_total == pytest.approx(min_spanning_weight(adj), rel=1e-9)

    def test_start_vertex_does_not_change_total(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            size = int(rng.integers(2, 8))
            adj = random_point_matrix(rng, size)
            totals = {
                round(sum(w for _, _, w in prim_mst(adj, start)), 9)
                for start in range(size)
            }
            assert len(totals) == 1

    def test_tree_structure(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            size = int(rng.integers(1, 9))
            edges = prim_mst(random_point_matrix(rng, size))
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
        adj = build_adjacency([0, 10, 0], [0, 0, 10])
        assert prim_mst(adj) == [(0, 1, 10.0), (0, 2, 10.0)]

    def test_coincident_positions_allowed(self):
        adj = build_adjacency([1, 1, 4], [1, 1, 5])
        edges = prim_mst(adj)
        assert len(edges) == 2
        assert sum(w for _, _, w in edges) == pytest.approx(5.0, rel=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            prim_mst(np.zeros((2, 3)))

    def test_matches_tie_rule_oracle(self):
        # lowest tree index, then lowest outside index, on exact weight ties
        rng = np.random.default_rng(2718)
        for trial in range(300):
            size = int(rng.integers(1, 25))
            if trial % 2:
                upper = np.triu(rng.integers(0, 4, size=(size, size)), 1).astype(float)
                adj = upper + upper.T
            else:
                adj = random_point_matrix(rng, size)
            start = int(rng.integers(0, size))
            assert prim_mst(adj, start) == triple_loop_prim(adj, start)
