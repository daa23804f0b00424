import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from crwsnsim import engine

from helpers import loop_head_phase, nodes_at

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


def all_heads_round(xs, ys, fc, energy=EnergyParams()):
    """One proposed round in which every node is a head (p = 1, round 0)."""
    config = ScenarioConfig(n_nodes=len(xs), fc_position=Position(*fc),
                            ch_probability=1.0, protocol="proposed", rounds=1,
                            energy=energy)
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

    def test_cost_tie_goes_direct(self):
        # head 0 (48 m out) is the root; head 1 is 74 m from both it and the
        # fusion centre, so relaying costs exactly what sending direct does
        outcome = all_heads_round([48.0, 24.0], [0.0, 70.0], (0.0, 0.0))
        assert outcome.mst_edges == [(0, 1, 74.0)]
        child = outcome.decisions[0]
        assert (child.ch_id, child.relay_to) == (1, None)
        assert child.direct_cost == child.relay_cost

    def test_relay_wins_when_parent_is_close(self):
        # head 1 (150 m out) is the root; head 0 is 170 m out, 20 m from it
        outcome = all_heads_round([0.0, 0.0], [0.0, 20.0], (0.0, 170.0))
        child, root = outcome.decisions
        assert (child.ch_id, child.relay_to) == (0, 1)
        assert child.relay_cost == pytest.approx(1.18e-7, rel=1e-12)  # 2 bits, 20 m
        assert child.direct_cost == pytest.approx(2.281546e-6, rel=1e-12)  # 2 bits, 170 m
        assert (root.ch_id, root.relay_to) == (1, None)
        assert root.relay_cost == root.direct_cost

    def test_costs_are_link_costs_of_both_distances(self):
        xs, ys = [10.0, 30.0, 60.0, 80.0, 45.0], [5.0, 40.0, 20.0, 70.0, 90.0]
        fc = (50.0, 250.0)
        outcome = all_heads_round(xs, ys, fc)
        uplink = {child: metres for _, child, metres in outcome.mst_edges}
        params = EnergyParams()
        for dec in outcome.decisions:
            d_fc = math.hypot(xs[dec.ch_id] - fc[0], ys[dec.ch_id] - fc[1])
            assert dec.direct_cost == link_cost(params, 5, d_fc)
            assert dec.relay_cost == link_cost(params, 5, uplink.get(dec.ch_id, d_fc))
        assert not all(dec.is_direct for dec in outcome.decisions)

    def test_choice_invariant_under_cost_scaling(self):
        rng = np.random.default_rng(13)
        relays = 0
        for _ in range(40):
            xs, ys = rng.uniform(0.0, 100.0, (2, 6)).round(3)
            fc = (50.0, round(float(rng.uniform(50.0, 300.0)), 3))
            routes = set()
            for factor in (1.0, 1e-3, 0.5, 2.0, 1e3):
                scaled = EnergyParams(e_tx=50e-9 * factor, e_aggregation=5e-9 * factor,
                                      e_fs=10e-12 * factor, e_mp=0.0013e-12 * factor)
                outcome = all_heads_round(xs.tolist(), ys.tolist(), fc, scaled)
                routes.add(tuple((d.ch_id, d.relay_to) for d in outcome.decisions))
            assert len(routes) == 1
            relays += sum(relay_to is not None for _, relay_to in routes.pop())
        assert relays > 0

    def test_relay_from_a_parentless_sender_is_an_error(self):
        # with every relay cheaper than its direct link, the root relays too,
        # but it has no parent, so the bits of the whole tree would be lost
        def cheap_relays(params, m_bits, d):
            cost = link_cost(params, m_bits, d)
            direct = cost[:cost.size // 2]
            cost[cost.size // 2:] = direct / 2
            return cost

        config = ScenarioConfig(n_nodes=4, ch_probability=1.0, protocol="proposed", rounds=1)
        nodes = nodes_at([10.0, 30.0, 60.0, 80.0], [5.0, 40.0, 20.0, 70.0])
        with mock.patch.object(engine, "link_cost", cheap_relays), \
                pytest.raises(RuntimeError) as err:
            run_round(nodes, config, 0, np.random.default_rng(0))
        assert str(err.value) == "convergecast did not deliver every head's bit"


def _scenario(kind, rng, count):
    """Node coordinates and fusion centre for one head-phase scenario."""
    if kind == "lattice":  # integer coordinates: exact distance and cost ties
        xs, ys = rng.integers(0, 13, (2, count)).astype(float)
        return xs, ys, (float(rng.integers(0, 13)), float(rng.integers(0, 13)))
    xs, ys = rng.uniform(0.0, 100.0, (2, count))
    if kind == "far":  # multipath links to the fusion centre, so relays pay
        return xs, ys, (float(rng.uniform(0.0, 100.0)), float(rng.uniform(150.0, 400.0)))
    return xs, ys, (float(rng.uniform(0.0, 100.0)), float(rng.uniform(0.0, 100.0)))


class TestHeadPhaseMatchesLoop:
    """The array head phase charges, decides and builds the tree exactly as
    the scalar loop, one sender and two scalar costs at a time."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["random", "far", "lattice", "zero-head"]),
        st.sampled_from(["baseline", "proposed"]),
        st.sampled_from([0.1, 0.3, 1.0]),
        st.integers(min_value=1, max_value=150),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_equals_loop_oracle(self, kind, protocol, p, count, seed):
        rng = np.random.default_rng(seed)
        xs, ys, fc = _scenario("far" if kind == "zero-head" else kind, rng, count)
        config = ScenarioConfig(n_nodes=count, fc_position=Position(*fc), ch_probability=p,
                                protocol=protocol, rounds=10)
        energy = np.where(rng.random(count) < 0.5, 0.5, rng.uniform(0.0, 2e-6, count))
        alive = rng.random(count) < 0.9
        alive[rng.integers(count)] = True
        # round 3 with every node served in this epoch elects nobody
        round_index = 3 if kind == "zero-head" else 0
        runs = []
        for head_phase in (engine._head_phase, loop_head_phase):
            nodes = nodes_at(xs, ys, energy)
            nodes.alive[:] = alive
            if kind == "zero-head":
                nodes.last_ch_round[:] = 3
            with mock.patch.object(engine, "_head_phase", head_phase):
                outcome = run_round(nodes, config, round_index, np.random.default_rng(seed))
            runs.append((outcome, nodes))
        (got, got_nodes), (want, want_nodes) = runs
        if kind == "zero-head":
            assert got.cluster_heads == []
        assert got.mst_edges == want.mst_edges
        assert got.decisions == want.decisions
        assert got_nodes.energy.tobytes() == want_nodes.energy.tobytes()
        assert got == want


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
        assert result.outcomes == []
        assert result.final_residual == pytest.approx(50.0, rel=1e-12)
        assert result.final_alive == 100
        assert result.first_death_round is None

    def test_row_count_and_numbering(self):
        result = run_simulation(ScenarioConfig(rounds=20, n_nodes=30))
        assert [o.round_index for o in result.outcomes] == list(range(20))

    def test_deterministic_rerun(self):
        config = ScenarioConfig(rounds=120, n_nodes=50, protocol="proposed",
                                clustering="uniform", rng_seed=9)
        first = run_simulation(config)
        second = run_simulation(config)
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
                residuals = np.array([o.total_residual for o in result.outcomes])
                alive = np.array([o.alive for o in result.outcomes])
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
        assert [o.total_residual for o in baseline.outcomes] == [
            o.total_residual for o in proposed.outcomes
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
        assert len(result.outcomes) < 500
        assert result.outcomes[-1].alive == 0
        assert result.outcomes[-1].total_residual == 0.0
        assert result.final_alive == 0

    def test_first_death_round_recorded(self):
        config = ScenarioConfig(n_nodes=8, rounds=120, rng_seed=3,
                                energy=TINY_BATTERY)
        result = run_simulation(config)
        first = result.first_death_round
        assert first is not None
        with_deaths = [o for o in result.outcomes if o.deaths]
        assert first == with_deaths[0].round_index + 1
        for outcome in result.outcomes[: first - 1]:
            assert outcome.deaths == []
            assert outcome.alive == 8
        assert result.outcomes[first - 1].alive == 8 - len(with_deaths[0].deaths)

    def test_custom_nodes_override_placement(self):
        config = ScenarioConfig(n_nodes=3, rounds=5)
        nodes = nodes_at([0.0, 10.0, 20.0], [0.0] * 3)
        result = run_simulation(config, nodes=nodes)
        assert result.initial_energy == pytest.approx(1.5, rel=1e-12)
        assert len(result.outcomes) == 5
