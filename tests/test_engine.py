import math
from dataclasses import replace

import numpy as np
import pytest

from crwsnsim import (
    EnergyParams,
    Position,
    ScenarioConfig,
    build_adjacency,
    link_cost,
    prim_mst,
    run_round,
    run_simulation,
)

from helpers import nodes_at

TINY_BATTERY = EnergyParams(initial_energy=2e-7)


class TestRunRound:
    def test_two_node_worked_example(self):
        # head at the origin, member 10 m away, fusion centre 20 m from the head;
        # at round 5 with p = 0.5 the threshold is 1, and node 1 sat out the
        # epoch, so node 0 is always the head
        config = ScenarioConfig(
            n_nodes=2,
            fc_position=Position(20.0, 0.0),
            ch_probability=0.5,
            clustering="uniform",
            cluster_count=1,
            rounds=10,
        )
        nodes = nodes_at([0.0, 0.0], [0.0, 10.0])
        nodes.last_ch_round[1] = 4
        outcome = run_round(nodes, config, 5, np.random.default_rng(0))
        assert outcome.cluster_heads == [0]
        assert 0.5 - nodes.energy[1] == pytest.approx(5.6e-8, rel=1e-12)
        assert 0.5 - nodes.energy[0] == pytest.approx(1.14e-7, rel=1e-12)
        assert outcome.energy_spent == pytest.approx(1.7e-7, rel=1e-12)

    def test_worked_example_same_for_proposed_single_head(self):
        results = []
        for protocol in ("baseline", "proposed"):
            config = ScenarioConfig(
                n_nodes=2,
                fc_position=Position(20.0, 0.0),
                ch_probability=0.5,
                protocol=protocol,
                clustering="uniform",
                cluster_count=1,
                rounds=10,
            )
            nodes = nodes_at([0.0, 0.0], [0.0, 10.0])
            nodes.last_ch_round[1] = 4
            run_round(nodes, config, 5, np.random.default_rng(0))
            results.append((nodes.energy[0], nodes.energy[1]))
        assert results[0] == results[1]

    @pytest.mark.parametrize("protocol", ["baseline", "proposed"])
    def test_colocated_nodes_pay_only_electronics(self, protocol):
        config = ScenarioConfig(
            n_nodes=3,
            fc_position=Position(50.0, 50.0),
            ch_probability=0.5,
            protocol=protocol,
            clustering="uniform",
            cluster_count=1,
            rounds=1,
        )
        nodes = nodes_at([50.0] * 3, [50.0] * 3)
        outcome = run_round(nodes, config, 0, np.random.default_rng(1))
        # 2 member reports + 2 receptions with aggregation + 1 direct report,
        # every distance term zero
        expected = 2 * 55e-9 + 2 * (50e-9 + 5e-9) + 55e-9
        assert outcome.energy_spent == pytest.approx(expected, rel=1e-12)

    def test_spent_matches_node_deltas(self):
        config = ScenarioConfig(n_nodes=30, protocol="proposed", clustering="uniform")
        rng = np.random.default_rng(7)
        nodes = nodes_at(*zip(*(divmod(i * 37 % 100, 10) for i in range(30))))
        before = nodes.energy.copy()
        outcome = run_round(nodes, config, 0, rng)
        delta = math.fsum(before - nodes.energy)
        assert outcome.energy_spent == pytest.approx(delta, rel=1e-12)

    def test_requires_alive_node(self):
        config = ScenarioConfig(n_nodes=1)
        node = nodes_at([1.0], [1.0])
        node.alive[0] = False
        with pytest.raises(ValueError):
            run_round(node, config, 0, np.random.default_rng(0))

    def test_proposed_records_tree_and_decisions(self):
        config = ScenarioConfig(n_nodes=40, protocol="proposed", clustering="uniform")
        result = run_simulation(replace(config, rounds=3))
        for outcome in result.outcomes:
            assert len(outcome.mst_edges) == len(outcome.cluster_heads) - 1
            assert len(outcome.decisions) == len(outcome.cluster_heads)
            directs = [d for d in outcome.decisions if d.is_direct]
            assert directs, "at least the root transmits directly"
            for dec in outcome.decisions:
                if not dec.is_direct:
                    assert dec.relay_cost < dec.direct_cost

    def test_baseline_decisions_all_direct(self):
        config = ScenarioConfig(n_nodes=40, protocol="baseline", clustering="uniform")
        result = run_simulation(replace(config, rounds=3))
        for outcome in result.outcomes:
            assert outcome.mst_edges == []
            assert all(d.is_direct for d in outcome.decisions)


def all_heads_round(xs, ys, fc):
    """One proposed round in which every node is a head (p = 1, round 0)."""
    config = ScenarioConfig(n_nodes=len(xs), fc_position=Position(*fc),
                            ch_probability=1.0, protocol="proposed", rounds=1)
    outcome = run_round(nodes_at(xs, ys), config, 0, np.random.default_rng(0))
    assert outcome.cluster_heads == list(range(len(xs)))
    return outcome


class TestHeadPhase:
    @pytest.mark.parametrize("xs, ys, root", [
        ([10.0, -10.0, 0.0], [0.0, 0.0, -50.0], 0),
        ([-10.0, 10.0, 0.0], [0.0, 0.0, 5.0], 2),
    ], ids=["distance-tie-to-lower-index", "nearest-is-highest-index"])
    def test_root_is_head_nearest_fusion_centre(self, xs, ys, root):
        outcome = all_heads_round(xs, ys, (0.0, 300.0))
        children = {child for _, child, _ in outcome.mst_edges}
        assert set(outcome.cluster_heads) - children == {root}
        assert outcome.mst_edges[0][0] == root
        last = outcome.decisions[-1]
        assert (last.ch_id, last.relay_to) == (root, None)
        assert last.relay_cost == last.direct_cost

    def test_relays_transmit_before_parents_and_chains_end_direct(self):
        config = ScenarioConfig(n_nodes=100, fc_position=Position(50.0, 400.0),
                                protocol="proposed", rounds=30, rng_seed=4)
        relays = 0
        for outcome in run_simulation(config).outcomes:
            parent_of = {child: parent for parent, child, _ in outcome.mst_edges}
            position = {d.ch_id: i for i, d in enumerate(outcome.decisions)}
            route = {d.ch_id: d.relay_to for d in outcome.decisions}
            assert sorted(position) == outcome.cluster_heads
            for head, relay_to in route.items():
                if relay_to is None:
                    continue
                relays += 1
                assert relay_to == parent_of[head]
                assert position[head] < position[relay_to]
                hops = 0
                while route[head] is not None:
                    head, hops = route[head], hops + 1
                    assert hops < len(route)
        assert relays > 0

    def test_tree_is_prim_grown_from_root_on_tied_lattice(self):
        # 10 m lattice points; edges 0-3 and 1-2 tie at sqrt(2600) m, so the
        # tree depends on where Prim starts; head 3 is nearest the centre
        xs, ys = [40.0, 40.0, 90.0, 90.0], [40.0, 10.0, 0.0, 50.0]
        outcome = all_heads_round(xs, ys, (50.0, 300.0))
        adjacency = build_adjacency(xs, ys)
        assert outcome.mst_edges == prim_mst(adjacency, start=3)
        undirected = {frozenset(e[:2]) for e in outcome.mst_edges}
        assert undirected != {frozenset(e[:2]) for e in prim_mst(adjacency, start=0)}


class TestDrainedHead:
    """A head whose battery runs out mid-round keeps every duty of the round
    and dies only in the end-of-round sweep."""

    # heads 0, 1 and 2 on a line toward a far fusion centre, member 3 beside
    # head 1; at round 5 with p = 0.5 the threshold is 1 and node 3 sat out
    # the epoch, so exactly nodes 0-2 are elected
    CONFIG = ScenarioConfig(n_nodes=4, fc_position=Position(0.0, 300.0),
                            ch_probability=0.5, protocol="proposed", rounds=10)

    def run(self, middle_battery):
        nodes = nodes_at([0.0, 0.0, 0.0, 1.0], [0.0, 10.0, 20.0, 10.0])
        nodes.energy[1] = middle_battery
        nodes.last_ch_round[3] = 4
        before = nodes.energy.copy()
        outcome = run_round(nodes, self.CONFIG, 5, np.random.default_rng(0))
        return nodes, before, outcome

    def test_drained_head_receives_transmits_and_relays(self):
        nodes, before, outcome = self.run(1e-9)  # less than one bit's reception
        full_nodes, _, full = self.run(0.5)
        assert outcome.cluster_heads == [0, 1, 2]
        routes = {d.ch_id: d.relay_to for d in outcome.decisions}
        assert routes == {0: 1, 1: 2, 2: None}  # head 1 relays head 0's bits
        assert outcome.decisions == full.decisions
        assert outcome.mst_edges == full.mst_edges
        # the other nodes pay exactly what they pay when head 1 is well charged
        assert np.array_equal(nodes.energy[[0, 2, 3]], full_nodes.energy[[0, 2, 3]])
        # reception plus aggregation of member 3's bit (55 nJ), reception of
        # head 0's 3-bit table (150 nJ), its own 3-bit relay over 10 m (168 nJ)
        assert 0.5 - full_nodes.energy[1] == pytest.approx(3.73e-7, rel=1e-12)
        assert nodes.energy[1] == 0.0
        assert outcome.deaths == [1]
        assert nodes.alive.tolist() == [True, False, True, True]
        assert outcome.energy_spent == math.fsum(before - nodes.energy)


class TestNoChFallback:
    """A round that elects no head: every alive node sends its own bit
    straight to the fusion centre, with no tree, under either protocol."""

    @staticmethod
    def zero_head_round(protocol, xs, ys, fc, field=100.0, dead=()):
        # nonuniform election at round 3, where every node already served in
        # this epoch, so no node is eligible and nobody is elected
        config = ScenarioConfig(n_nodes=len(xs), field_width=field, field_height=field,
                                fc_position=Position(*fc), protocol=protocol,
                                clustering="nonuniform", rounds=10)
        nodes = nodes_at(xs, ys)
        nodes.last_ch_round[:] = 3
        nodes.alive[list(dead)] = False
        before = nodes.energy.copy()
        outcome = run_round(nodes, config, 3, np.random.default_rng(0))
        assert outcome.cluster_heads == []
        assert outcome.mst_edges == []
        return config, nodes, before, outcome

    @pytest.mark.parametrize("protocol", ["baseline", "proposed"])
    def test_every_alive_node_sends_one_bit_direct(self, protocol):
        xs, ys = [10.0, 90.0, 40.0, 0.0, 70.0], [20.0, 0.0, 60.0, 100.0, 30.0]
        fc = (50.0, 250.0)
        config, nodes, before, outcome = self.zero_head_round(protocol, xs, ys, fc, dead=[3])
        assert [(d.ch_id, d.relay_to) for d in outcome.decisions] == [
            (0, None), (1, None), (2, None), (4, None)
        ]
        for dec in outcome.decisions:
            d_fc = math.hypot(xs[dec.ch_id] - fc[0], ys[dec.ch_id] - fc[1])
            cost = link_cost(config.energy, 1, d_fc)  # one bit, not a four-bit table
            assert dec.direct_cost == cost
            assert nodes.energy[dec.ch_id] == before[dec.ch_id] - cost
        assert nodes.energy[3] == before[3]

    def test_node_at_fusion_centre(self):
        for protocol in ("baseline", "proposed"):
            *_, outcome = self.zero_head_round(protocol, [50.0], [50.0], (50.0, 50.0))
            assert outcome.energy_spent == pytest.approx(5.5e-8, rel=1e-12)

    def test_multipath_distance(self):
        for protocol in ("baseline", "proposed"):
            *_, outcome = self.zero_head_round(protocol, [200.0], [0.0], (0.0, 0.0),
                                               field=300.0)
            assert outcome.energy_spent == pytest.approx(2.135e-6, rel=1e-12)

    def test_zero_head_round_uses_fallback(self):
        # nonuniform election with 2 nodes frequently elects nobody
        config = ScenarioConfig(n_nodes=2, clustering="nonuniform", rounds=40,
                                rng_seed=11)
        result = run_simulation(config)
        fallback_rounds = [o for o in result.outcomes if not o.cluster_heads]
        assert fallback_rounds, "expected at least one zero-head round"
        assert result.first_death_round is None
        for outcome in fallback_rounds:
            assert [(d.ch_id, d.relay_to) for d in outcome.decisions] == [(0, None), (1, None)]
            assert outcome.energy_spent > 0.0


class TestRunSimulation:
    def test_zero_rounds(self):
        result = run_simulation(ScenarioConfig(rounds=0))
        assert result.metrics == []
        assert result.outcomes == []
        assert result.final_residual == pytest.approx(50.0, rel=1e-12)

    def test_row_count_and_numbering(self):
        result = run_simulation(ScenarioConfig(rounds=20, n_nodes=30))
        assert [m.round_number for m in result.metrics] == list(range(1, 21))

    def test_deterministic_rerun(self):
        config = ScenarioConfig(rounds=120, n_nodes=50, protocol="proposed",
                                clustering="uniform", rng_seed=9)
        first = run_simulation(config)
        second = run_simulation(config)
        assert first.metrics == second.metrics
        assert first.outcomes == second.outcomes

    def test_conservation_and_monotonicity(self):
        for protocol, clustering in (
            ("baseline", "nonuniform"),
            ("proposed", "uniform"),
            ("proposed", "nonuniform"),
        ):
            for seed in (0, 1, 2):
                config = ScenarioConfig(rounds=300, protocol=protocol,
                                        clustering=clustering, rng_seed=seed)
                result = run_simulation(config)
                residuals = np.array([m.total_residual for m in result.metrics])
                alive = np.array([m.alive for m in result.metrics])
                spent = np.cumsum([o.energy_spent for o in result.outcomes])
                drained = result.initial_energy - residuals
                assert np.all(np.diff(residuals) <= 0.0)
                assert np.all(np.diff(alive) <= 0)
                assert np.allclose(drained, spent, rtol=1e-9, atol=0.0)

    def test_single_head_proposed_equals_baseline(self):
        base = ScenarioConfig(rounds=250, n_nodes=40, clustering="uniform",
                              cluster_count=1, rng_seed=21)
        baseline = run_simulation(replace(base, protocol="baseline"))
        proposed = run_simulation(replace(base, protocol="proposed"))
        assert [m.total_residual for m in baseline.metrics] == [
            m.total_residual for m in proposed.metrics
        ]

    def test_dead_nodes_stay_dead(self):
        config = ScenarioConfig(n_nodes=8, rounds=120, rng_seed=3,
                                energy=TINY_BATTERY)
        result = run_simulation(config)
        assert result.first_death_round is not None
        dead_after = {}
        for outcome in result.outcomes:
            for head in outcome.cluster_heads:
                assert head not in dead_after, "dead node elected head"
            for node_id in outcome.deaths:
                assert node_id not in dead_after, "node died twice"
                dead_after[node_id] = outcome.round_index
        assert dead_after, "expected deaths with a tiny battery"

    def test_extinction_terminates_early(self):
        config = ScenarioConfig(n_nodes=4, rounds=500, rng_seed=3,
                                energy=TINY_BATTERY)
        result = run_simulation(config)
        assert result.terminated_round is not None
        assert len(result.metrics) < 500
        assert result.metrics[-1].alive == 0
        assert result.metrics[-1].total_residual == 0.0

    def test_first_death_round_recorded(self):
        config = ScenarioConfig(n_nodes=8, rounds=120, rng_seed=3,
                                energy=TINY_BATTERY)
        result = run_simulation(config)
        first = result.first_death_round
        assert first is not None
        for row in result.metrics:
            if row.round_number < first:
                assert row.first_death_round is None
                assert row.alive == 8
            else:
                assert row.first_death_round == first

    def test_custom_nodes_override_placement(self):
        config = ScenarioConfig(n_nodes=3, rounds=5)
        nodes = nodes_at([0.0, 10.0, 20.0], [0.0] * 3)
        result = run_simulation(config, nodes=nodes)
        assert result.initial_energy == pytest.approx(1.5, rel=1e-12)
        assert len(result.metrics) == 5
