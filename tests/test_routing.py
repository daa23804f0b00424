import math

import numpy as np
import pytest

from crwsnsim import (
    EnergyParams,
    build_adjacency,
    link_cost,
    orient_tree,
    prim_mst,
    route_decision,
)

from helpers import (
    min_spanning_weight,
    random_point_matrix,
    spanning_tree_weights,
    triple_loop_prim,
)

PARAMS = EnergyParams()


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


class TestOrientTree:
    def test_single_vertex(self):
        tree = orient_tree(1, [], [12.0])
        assert tree.root == 0
        assert tree.parents == (None,)
        assert tree.order == (0,)

    def test_path_points_toward_root(self):
        # path 0 - 1 - 2 with vertex 2 nearest the fusion centre
        edges = [(0, 1, 1.0), (1, 2, 1.0)]
        tree = orient_tree(3, edges, [30.0, 20.0, 10.0])
        assert tree.root == 2
        assert tree.parents[0] == 1
        assert tree.parents[1] == 2
        assert tree.parents[2] is None
        assert tree.order == (0, 1, 2)  # deepest first

    def test_star_rooted_at_nearest_leaf(self):
        # hub 0 with leaves 1..3; leaf 2 nearest the fusion centre
        edges = [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)]
        tree = orient_tree(4, edges, [50.0, 60.0, 5.0, 70.0])
        assert tree.root == 2
        assert tree.parents[0] == 2
        assert tree.parents[1] == 0
        assert tree.parents[3] == 0
        assert tree.depths == (1, 2, 0, 2)

    def test_distance_tie_breaks_to_lower_index(self):
        tree = orient_tree(2, [(0, 1, 3.0)], [10.0, 10.0])
        assert tree.root == 0

    def test_parent_chains_reach_root(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            size = int(rng.integers(1, 12))
            adj = random_point_matrix(rng, size)
            edges = prim_mst(adj)
            tree = orient_tree(size, edges, list(rng.uniform(0, 200, size)))
            for v in range(size):
                hops, current = 0, v
                while tree.parents[current] is not None:
                    current = tree.parents[current]
                    hops += 1
                    assert hops < size
                assert current == tree.root

    def test_rejects_disconnected_edges(self):
        with pytest.raises(ValueError):
            orient_tree(3, [(0, 1, 1.0)], [1.0, 2.0, 3.0])


class TestRouteDecision:
    def test_tie_prefers_direct(self):
        dec = route_decision(PARAMS, 10, 40.0, 40.0, is_root=False, ch_id=4, parent_id=9)
        assert dec.is_direct
        assert dec.direct_cost == dec.relay_cost

    def test_relay_wins_when_parent_close(self):
        dec = route_decision(PARAMS, 10, 150.0, 20.0, is_root=False, ch_id=4, parent_id=9)
        assert dec.relay_to == 9
        assert dec.relay_cost == pytest.approx(5.9e-7, rel=1e-12)
        assert dec.direct_cost == pytest.approx(7.13125e-6, rel=1e-12)

    def test_root_always_direct(self):
        dec = route_decision(PARAMS, 10, 500.0, 1.0, is_root=True, ch_id=0)
        assert dec.is_direct

    def test_relay_requires_parent_id(self):
        with pytest.raises(ValueError):
            route_decision(PARAMS, 10, 150.0, 20.0, is_root=False, ch_id=4)

    def test_choice_invariant_under_cost_scaling(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            d_fc = round(float(rng.uniform(0, 300)), 3)
            d_parent = round(float(rng.uniform(0, 300)), 3)
            baseline = route_decision(PARAMS, 10, d_fc, d_parent, False, 1, 2)
            for factor in (1e-3, 0.5, 2.0, 1e3):
                scaled = EnergyParams(
                    initial_energy=PARAMS.initial_energy,
                    e_tx=PARAMS.e_tx * factor,
                    e_aggregation=PARAMS.e_aggregation * factor,
                    e_rx=PARAMS.e_rx,
                    e_fs=PARAMS.e_fs * factor,
                    e_mp=PARAMS.e_mp * factor,
                )
                dec = route_decision(scaled, 10, d_fc, d_parent, False, 1, 2)
                assert dec.relay_to == baseline.relay_to

    def test_costs_follow_link_cost(self):
        dec = route_decision(PARAMS, 7, 120.0, 35.0, is_root=False, ch_id=1, parent_id=2)
        assert dec.direct_cost == link_cost(PARAMS, 7, 120.0)
        assert dec.relay_cost == link_cost(PARAMS, 7, 35.0)
