import math
import re
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crwsnsim import (
    EnergyParams,
    RoundOutcome,
    ScenarioConfig,
    link_cost,
    place_nodes,
    run_round,
    run_simulation,
)
from crwsnsim import engine

from helpers import (
    distance_matrix,
    loop_head_phase,
    nodes_at,
    prim_edges,
    reference_run,
    same_outcome,
)

TINY_BATTERY = EnergyParams(initial_energy=2e-7)


class TestRunRound:
    def test_two_node_worked_example(self):
        # head at the origin, member 10 m away, fusion centre 20 m from the head;
        # at round 5 with p = 0.5 the threshold is 1, and node 1 sat out the
        # epoch, so node 0 is always the head
        config = ScenarioConfig(
            nodes=2,
            fc_x=20.0, fc_y=0.0,
            p=0.5,
            clustering="uniform",
            k=1,
            rounds=10,
        )
        nodes = nodes_at([0.0, 0.0], [0.0, 10.0])
        nodes.last_ch_round[1] = 4
        outcome = run_round(nodes, config, 5, np.random.default_rng(0))
        assert outcome.cluster_heads.tolist() == [0]
        assert 0.5 - nodes.energy[1] == pytest.approx(5.6e-8, rel=1e-12)
        assert 0.5 - nodes.energy[0] == pytest.approx(1.14e-7, rel=1e-12)
        assert outcome.energy_spent == pytest.approx(1.7e-7, rel=1e-12)

    def test_worked_example_same_for_proposed_single_head(self):
        results = []
        for protocol in ("baseline", "proposed"):
            config = ScenarioConfig(
                nodes=2,
                fc_x=20.0, fc_y=0.0,
                p=0.5,
                protocol=protocol,
                clustering="uniform",
                k=1,
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
            nodes=3,
            fc_x=50.0, fc_y=50.0,
            p=0.5,
            protocol=protocol,
            clustering="uniform",
            k=1,
            rounds=1,
        )
        nodes = nodes_at([50.0] * 3, [50.0] * 3)
        outcome = run_round(nodes, config, 0, np.random.default_rng(1))
        # 2 member reports + 2 receptions with aggregation + 1 direct report,
        # every distance term zero
        expected = 2 * 55e-9 + 2 * (50e-9 + 5e-9) + 55e-9
        assert outcome.energy_spent == pytest.approx(expected, rel=1e-12)

    def test_spent_matches_node_deltas(self):
        config = ScenarioConfig(nodes=30, protocol="proposed", clustering="uniform")
        rng = np.random.default_rng(7)
        nodes = nodes_at(*zip(*(divmod(i * 37 % 100, 10) for i in range(30))))
        before = nodes.energy.copy()
        outcome = run_round(nodes, config, 0, rng)
        delta = math.fsum(before - nodes.energy)
        assert outcome.energy_spent == pytest.approx(delta, rel=1e-12)

    def test_requires_alive_node(self):
        config = ScenarioConfig(nodes=1)
        node = nodes_at([1.0], [1.0])
        node.energy[0] = 0.0
        with pytest.raises(ValueError):
            run_round(node, config, 0, np.random.default_rng(0))

    def test_infinite_sender_raises_without_a_warning(self):
        # every node heads and sends direct, its own parent: inf - inf is never read
        config = ScenarioConfig(protocol="baseline", clustering="uniform", nodes=4, k=4, p=1.0)
        nodes = nodes_at([0.0, 10.0, 20.0, math.inf], [0.0] * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^d must be a finite non-negative distance"):
                run_round(nodes, config, 0, np.random.default_rng(0))

    def test_proposed_records_tree_and_decisions(self):
        config = ScenarioConfig(nodes=40, protocol="proposed", clustering="uniform")
        result = run_simulation(replace(config, rounds=3))
        for outcome in result.outcomes:
            assert len(tree_edges(outcome)) == len(outcome.cluster_heads) - 1
            assert len(outcome.senders) == len(outcome.cluster_heads)
            relays = outcome.relay_to >= 0
            assert not relays.all(), "at least the root transmits directly"
            assert np.all(outcome.relay_cost[relays] < outcome.direct_cost[relays])

    def test_baseline_decisions_all_direct(self):
        config = ScenarioConfig(nodes=40, protocol="baseline", clustering="uniform")
        result = run_simulation(replace(config, rounds=3))
        for outcome in result.outcomes:
            assert tree_edges(outcome) == []
            assert np.all(outcome.relay_to == -1)


def tree_edges(outcome):
    """The round's tree as (parent head, child head) in Prim's insertion order."""
    return [(p, c) for c, p in zip(outcome.senders.tolist(), outcome.parent.tolist())
            if p >= 0][::-1]


def all_heads_round(xs, ys, fc, energy=EnergyParams()):
    """One proposed round in which every node is a head (p = 1, round 0)."""
    config = ScenarioConfig(nodes=len(xs), fc_x=fc[0], fc_y=fc[1],
                            p=1.0, protocol="proposed", rounds=1,
                            energy=energy)
    outcome = run_round(nodes_at(xs, ys), config, 0, np.random.default_rng(0))
    assert outcome.cluster_heads.tolist() == list(range(len(xs)))
    return outcome


class TestHeadPhase:
    @pytest.mark.parametrize("xs, ys, root", [
        ([10.0, -10.0, 0.0], [0.0, 0.0, -50.0], 0),
        ([-10.0, 10.0, 0.0], [0.0, 0.0, 5.0], 2),
    ], ids=["distance-tie-to-lower-index", "nearest-is-highest-index"])
    def test_root_is_head_nearest_fusion_centre(self, xs, ys, root):
        outcome = all_heads_round(xs, ys, (0.0, 300.0))
        children = {child for _, child in tree_edges(outcome)}
        assert set(outcome.cluster_heads.tolist()) - children == {root}
        assert tree_edges(outcome)[0][0] == root
        assert (outcome.senders[-1], outcome.parent[-1], outcome.relay_to[-1]) == (root, -1, -1)
        assert outcome.relay_cost[-1] == outcome.direct_cost[-1]

    def test_relays_transmit_before_parents_and_chains_end_direct(self):
        config = ScenarioConfig(nodes=100, fc_x=50.0, fc_y=400.0,
                                protocol="proposed", rounds=30, seed=4)
        relays = 0
        for outcome in run_simulation(config).outcomes:
            parent_of = {child: parent for parent, child in tree_edges(outcome)}
            position = {h: i for i, h in enumerate(outcome.senders.tolist())}
            route = dict(zip(outcome.senders.tolist(), outcome.relay_to.tolist()))
            assert sorted(position) == outcome.cluster_heads.tolist()
            for head, relay_to in route.items():
                if relay_to == -1:
                    continue
                relays += 1
                assert relay_to == parent_of[head]
                assert position[head] < position[relay_to]
                hops = 0
                while route[head] != -1:
                    head, hops = route[head], hops + 1
                    assert hops < len(route)
        assert relays > 0

    def test_tree_is_prim_grown_from_root_on_tied_lattice(self):
        # 10 m lattice points; edges 0-3 and 1-2 tie at sqrt(2600) m, so the
        # tree depends on where Prim starts; head 3 is nearest the centre
        xs, ys = [40.0, 40.0, 90.0, 90.0], [40.0, 10.0, 0.0, 50.0]
        outcome = all_heads_round(xs, ys, (50.0, 300.0))
        assert tree_edges(outcome) == [(i, j) for i, j, _ in prim_edges(xs, ys, start=3)]
        undirected = {frozenset(e) for e in tree_edges(outcome)}
        assert undirected != {frozenset(e[:2]) for e in prim_edges(xs, ys, start=0)}

    def test_cost_tie_goes_direct(self):
        # head 0 (48 m out) is the root; head 1 is 74 m from both it and the
        # fusion centre, so relaying costs exactly what sending direct does
        outcome = all_heads_round([48.0, 24.0], [0.0, 70.0], (0.0, 0.0))
        assert tree_edges(outcome) == [(0, 1)]
        assert outcome.relay_cost[0] == 2 * link_cost(EnergyParams(), 74.0)
        assert (outcome.senders[0], outcome.relay_to[0]) == (1, -1)
        assert outcome.direct_cost[0] == outcome.relay_cost[0]

    def test_relay_wins_when_parent_is_close(self):
        # head 1 (150 m out) is the root; head 0 is 170 m out, 20 m from it
        outcome = all_heads_round([0.0, 0.0], [0.0, 20.0], (0.0, 170.0))
        assert outcome.senders.tolist() == [0, 1]
        assert outcome.relay_to.tolist() == [1, -1]
        assert outcome.relay_cost[0] == pytest.approx(1.18e-7, rel=1e-12)  # 2 bits, 20 m
        assert outcome.direct_cost[0] == pytest.approx(2.281546e-6, rel=1e-12)  # 2 bits, 170 m
        assert outcome.relay_cost[1] == outcome.direct_cost[1]

    def test_costs_are_link_costs_of_both_distances(self):
        xs, ys = [10.0, 30.0, 60.0, 80.0, 45.0], [5.0, 40.0, 20.0, 70.0, 90.0]
        fc = (50.0, 250.0)
        outcome = all_heads_round(xs, ys, fc)
        metres = distance_matrix(xs, ys)
        uplink = {child: metres[parent, child] for parent, child in tree_edges(outcome)}
        params = EnergyParams()
        for head, direct, relay in zip(outcome.senders.tolist(), outcome.direct_cost,
                                       outcome.relay_cost):
            d_fc = np.hypot(xs[head] - fc[0], ys[head] - fc[1])
            assert direct == 5 * link_cost(params, d_fc)
            assert relay == 5 * link_cost(params, uplink.get(head, d_fc))
        assert (outcome.relay_to >= 0).any()

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
                routes.add(tuple(zip(outcome.senders.tolist(), outcome.relay_to.tolist())))
            assert len(routes) == 1
            relays += sum(relay_to != -1 for _, relay_to in routes.pop())
        assert relays > 0

    def test_relay_from_a_parentless_sender_is_an_error(self):
        # with every relay cheaper than its direct link, the root relays too,
        # but it has no parent, so the bits of the whole tree would be lost;
        # every node heads, so the one cost call holds no member link, only
        # each sender's direct link and then its uplink
        def cheap_relays(params, d):
            cost = link_cost(params, d)
            direct = cost[:cost.size // 2]
            cost[cost.size // 2:] = direct / 2
            return cost

        config = ScenarioConfig(nodes=4, p=1.0, protocol="proposed", rounds=1)
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
    """The head phase reads the nodes without writing them, and the round
    built on it records the route arrays of the scalar loop, which builds
    the tree, prices and decides one sender and two scalar costs at a time."""

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
        config = ScenarioConfig(nodes=count, fc_x=fc[0], fc_y=fc[1], protocol=protocol)
        # a share p of the nodes as heads, or in a zero-head round every
        # node as a one-bit direct sender
        ids = np.arange(count) if kind == "zero-head" else np.flatnonzero(rng.random(count) < p)
        if not ids.size:
            ids = rng.integers(count, size=1)
        tree = protocol == "proposed" and kind != "zero-head"
        nodes = nodes_at(xs, ys)
        before = [array.copy() for array in vars(nodes).values()]
        engine._head_phase(nodes, ids, tree, config)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(vars(nodes).values(), before))
        want = loop_head_phase(nodes_at(xs, ys), ids, tree, config)
        # the round elects exactly ``ids``, or no one in a zero-head round
        heads = ids[:0] if kind == "zero-head" else ids
        with mock.patch.object(engine, "elect_cluster_heads", return_value=heads):
            outcome = run_round(nodes, config, 0, np.random.default_rng(seed))
        got = (outcome.senders, outcome.parent, outcome.relay_to, outcome.direct_cost,
               outcome.relay_cost)
        assert len(want) == 5
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _reference_scenario(kind, protocol, clustering, seed):
    """A drawn config for the whole-run reference test and the coordinates
    and batteries of its nodes: a lattice, or the config's own placement."""
    rng = np.random.default_rng(seed)
    near = tuple(rng.uniform(0.0, 100.0, 2).tolist())
    far = (float(rng.uniform(0.0, 100.0)), float(rng.uniform(150.0, 400.0)))
    fc = far if kind == "depletion" or rng.random() < 0.5 else near
    n, p, rounds, battery = int(rng.integers(1, 60)), 0.1, int(rng.integers(1, 12)), 0.5
    lattice = None
    if kind == "ring":  # 64 heads or more: assign_members searches rings of cells
        n, p, rounds = int(rng.integers(100, 150)), 0.5, int(rng.integers(2, 4))
    elif kind == "zero-head":  # few nodes, low p: rounds that elect nobody
        n, p, rounds = int(rng.integers(1, 12)), 0.1, int(rng.integers(10, 40))
    elif kind == "depletion":  # deaths mid-round, heads drained in their own round
        battery = float(rng.choice([2e-7, 1e-6, 5e-6]))
        p, rounds = float(rng.choice([0.1, 0.15, 0.3])), int(rng.integers(10, 40))
    else:  # "lattice" (20 m grid points: distance and cost ties) or "mixed"
        p = float(rng.choice([0.05, 0.1, 0.15, 0.3, 1.0]))
        battery = float(rng.choice([0.5, 5e-6, 2e-7]))
        if kind == "lattice":
            n = int(rng.integers(1, 150))
            # batteries differ, so a charge moved to another node moves the sums' last bits
            lattice = np.vstack((rng.integers(0, 6, (2, n)) * 20.0, rng.uniform(0.5, 1.0, n)))
            fc = (20.0 * int(rng.integers(0, 6)), 20.0 * int(rng.integers(0, 21)))
    if clustering == "uniform":
        n = max(n, math.ceil(1.0 / p))
        if lattice is not None:
            lattice = np.pad(lattice, ((0, 0), (0, n - lattice.shape[1])), mode="edge")
    count = int(rng.integers(64, n - 5)) if kind == "ring" else int(rng.integers(1, n + 1))
    advanced = float(rng.choice([0.0, 0.2, 0.5]))
    config = ScenarioConfig(
        nodes=n, fc_x=fc[0], fc_y=fc[1], p=p, rounds=rounds, protocol=protocol,
        clustering=clustering, k=count, advanced_fraction=advanced,
        advanced_energy_factor=float(rng.choice([1.0, 3.0])) if advanced else 0.0,
        seed=int(rng.integers(2**32)), energy=EnergyParams(initial_energy=battery),
    )
    if lattice is None:
        placed = place_nodes(config, np.random.default_rng(config.seed))
        return config, (placed.x, placed.y, placed.energy)
    xs, ys, share = lattice
    return config, (xs, ys, share * battery)


class TestRunMatchesReference:
    """``run_simulation`` equals ``reference_run``, the whole run one node
    at a time from the loop oracles, on every field of every round (ids as
    integer lists, floats byte for byte) and on every node's final state.
    This is the independent check of every charge of a round and of their
    order."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["ring", "zero-head", "depletion", "lattice", "mixed"]),
        st.sampled_from(["baseline", "proposed"]),
        st.sampled_from(["uniform", "nonuniform"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example("ring", "proposed", "uniform", 0)
    @example("ring", "baseline", "nonuniform", 2)
    @example("depletion", "proposed", "uniform", 0)
    @example("zero-head", "proposed", "nonuniform", 0)
    @example("lattice", "proposed", "nonuniform", 0)
    @example("lattice", "baseline", "uniform", 0)
    def test_every_field_equals_reference_run(self, kind, protocol, clustering, seed):
        config, layout = _reference_scenario(kind, protocol, clustering, seed)
        got_nodes, want_nodes = nodes_at(*layout), nodes_at(*layout)
        got = run_simulation(config, got_nodes).outcomes
        want = reference_run(config, want_nodes)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            for name in (f.name for f in fields(RoundOutcome)):
                x, y = getattr(a, name), getattr(b, name)
                if isinstance(x, np.ndarray) and x.dtype.kind != "f":
                    x, y = x.tolist(), y.tolist()
                elif isinstance(x, (np.ndarray, float)):
                    x, y = np.asarray(x, float).tobytes(), np.asarray(y, float).tobytes()
                assert x == y, (a.round_index, name)
        for name, array in vars(got_nodes).items():  # every node's battery and last head round
            assert array.tobytes() == getattr(want_nodes, name).tobytes(), name

    # A non-uniform run plans its rounds in blocks: to the end of an epoch, or on
    # through later epochs while no battery can empty, and replans after a
    # death; each scenario crosses the seam it is named after.
    @pytest.mark.parametrize("seam, kind, protocol, seed", [
        ("first-death-inside-an-epoch", "depletion", "baseline", 2),
        ("two-deaths-in-one-epoch", "depletion", "proposed", 1),
        ("zero-head-round-inside-a-block", "zero-head", "proposed", 0),
        ("rounds-end-mid-epoch", "mixed", "baseline", 0),
        ("one-round-epochs", "lattice", "proposed", 2),
        ("epoch-of-seven-at-p-0.15", "lattice", "proposed", 0),
        ("passed-nodes-with-one-empty-battery", "mixed", "proposed", 0),
        ("a-block-spans-epochs-and-rounds-end-mid-epoch", "zero-head", "baseline", 0),
        ("a-block-spans-epochs-of-seven", "mixed", "proposed", 11),
        ("no-horizon-deaths-after-an-epoch-seam", "depletion", "proposed", 2),
    ])
    def test_block_seams_equal_reference_run(self, monkeypatch, seam, kind, protocol, seed):
        config, (xs, ys, energy) = _reference_scenario(kind, protocol, "nonuniform", seed)
        if seam == "passed-nodes-with-one-empty-battery":
            energy = np.where(np.arange(energy.size) == energy.size // 2, 0.0, energy)
        if seam.startswith("no-horizon"):  # every block runs on to `rounds` or a death
            monkeypatch.setattr(engine, "_round_bound", lambda nodes, config: 5e-324)
        blocks, run_block = [], engine._run_block
        monkeypatch.setattr(engine, "_run_block",
                            lambda *args: blocks.append(run_block(*args)) or blocks[-1])
        got_nodes, want_nodes = nodes_at(xs, ys, energy), nodes_at(xs, ys, energy)
        got = run_simulation(config, got_nodes).outcomes
        assert seam in _block_seams(config, energy, got, blocks)
        want = reference_run(config, want_nodes)
        assert len(got) == len(want) and all(map(same_outcome, got, want))
        for name, array in vars(got_nodes).items():
            assert array.tobytes() == getattr(want_nodes, name).tobytes(), name


def _block_seams(config, energy, outcomes, blocks):
    """The seams that a non-uniform run crosses; ``blocks`` holds each block's outcomes."""
    epoch = round(1 / config.p)
    deaths = [o.round_index for o in outcomes if o.deaths.size]
    spans = [(b[0].round_index // epoch, b[-1].round_index // epoch, b[-1]) for b in blocks]
    seams = {
        "first-death-inside-an-epoch": deaths[:1] and deaths[0] % epoch < epoch - 1
        and deaths[0] < len(outcomes) - 1,
        "two-deaths-in-one-epoch": any(
            a // epoch == b // epoch and a % epoch < epoch - 1 for a, b in zip(deaths, deaths[1:])),
        "zero-head-round-inside-a-block": any(
            not o.cluster_heads.size and o.round_index % epoch
            and not any(o.round_index - o.round_index % epoch <= d < o.round_index for d in deaths)
            for o in outcomes),
        "rounds-end-mid-epoch": len(outcomes) == config.rounds and config.rounds % epoch,
        "one-round-epochs": epoch == 1 and len(outcomes) > 1,
        "epoch-of-seven-at-p-0.15": config.p == 0.15 and epoch == 7 and len(outcomes) > 7,
        "passed-nodes-with-one-empty-battery": np.count_nonzero(energy == 0.0) == 1
        and outcomes[0].alive + outcomes[0].deaths.size == energy.size - 1,
        "a-block-spans-epochs-and-rounds-end-mid-epoch": config.rounds % epoch and any(
            first + 2 <= last and end.round_index == config.rounds - 1
            for first, last, end in spans),
        "a-block-spans-epochs-of-seven": epoch == 7 and any(
            first < last for first, last, _ in spans),
        "no-horizon-deaths-after-an-epoch-seam": any(
            first < last and end.deaths.size for first, last, end in spans),
    }
    return {name for name, crossed in seams.items() if crossed}


class TestRoundBound:
    """``_round_bound`` is a proof: no node spends more than it in any round,
    so a block planned past the end of its epoch never ends in a death."""

    @staticmethod
    def run_in_blocks(config, nodes):
        """``run_simulation``'s outcomes, and each non-uniform block's first
        round, planned round count and outcomes."""
        planned, blocks, elect, run_block = [], [], engine.elect_block, engine._run_block
        with mock.patch.object(engine, "elect_block", lambda nodes, p, first, draws: planned.append(
                (first, len(draws))) or elect(nodes, p, first, draws)), \
                mock.patch.object(engine, "_run_block", lambda *args: blocks.append(
                    run_block(*args)) or blocks[-1]):
            outcomes = run_simulation(config, nodes).outcomes
        return outcomes, [(*plan, block) for plan, block in zip(planned, blocks, strict=True)]

    @staticmethod
    def assert_no_extended_block_dies(config, blocks):
        epoch = round(1 / config.p)
        for first, size, block in blocks:
            if first + size > first // epoch * epoch + epoch:
                assert len(block) == size and not any(o.deaths.size for o in block), first

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["ring", "zero-head", "depletion", "lattice", "mixed"]),
        st.sampled_from(["baseline", "proposed"]),
        st.sampled_from(["uniform", "nonuniform"]),
        st.floats(0.5, 40.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_no_round_spends_more_and_no_extended_block_dies(
            self, kind, protocol, clustering, horizon, seed):
        config, (xs, ys, energy) = _reference_scenario(kind, protocol, clustering, seed)
        bound = engine._round_bound(nodes_at(xs, ys, energy), config)
        assert 0.0 < bound < math.inf
        # a joule more in each battery: no node is floored, so a drop is a spend
        nodes, rng = nodes_at(xs, ys, energy + 1.0), np.random.default_rng(config.seed)
        for r in range(config.rounds):
            before = nodes.energy.copy()
            run_round(nodes, config, r, rng)
            assert (before - nodes.energy).max() <= bound, r
        if clustering == "nonuniform":  # the smallest battery outlasts `horizon` bounds
            energy = energy * (horizon * bound / energy.min())
            _, blocks = self.run_in_blocks(config, nodes_at(xs, ys, energy))
            self.assert_no_extended_block_dies(config, blocks)

    def test_a_hub_that_receives_every_table_meets_the_bound(self):
        # twenty heads at one point 1 m from the fusion centre: Prim hangs them
        # all on the root, and each relays its 20-bit table there, at 0 m
        config = ScenarioConfig(nodes=20, p=1.0, protocol="proposed", fc_x=1.0, fc_y=0.0)
        nodes = nodes_at(np.zeros(20), np.zeros(20))
        bound = engine._round_bound(nodes, config)
        outcome = run_round(nodes, config, 0, np.random.default_rng(0))
        assert outcome.relay_to.tolist().count(0) == 19
        assert 0.9 * bound < (0.5 - nodes.energy).max() <= bound

    @pytest.mark.parametrize("sends", [1, 9, 10, 11, 19, 20, 21, 25, 40])
    def test_a_lone_node_at_the_box_corner_meets_the_bound(self, sends):
        # one node spends one direct bit over the box diagonal every round, the
        # bound less its rounding margin; its battery holds `sends` of them
        config = ScenarioConfig(nodes=1, rounds=60, fc_x=0.0, fc_y=250.0, seed=3)
        nodes = place_nodes(config, np.random.default_rng(config.seed))
        cost = link_cost(config.energy, math.hypot(nodes.x[0], nodes.y[0] - 250.0))
        assert engine._round_bound(nodes, config) == pytest.approx(cost, rel=2e-6)
        nodes.energy[0] = sends * cost
        outcomes, blocks = self.run_in_blocks(config, nodes)
        assert len(outcomes) in (sends, sends + 1) and outcomes[-1].deaths.tolist() == [0]
        self.assert_no_extended_block_dies(config, blocks)
        assert sends < 19 or any(size > 10 for _, size, _ in blocks)  # planned past an epoch


class TestDrainedHead:
    """A head whose battery runs out mid-round keeps every duty of the round
    and dies only in the end-of-round sweep."""

    # heads 0, 1 and 2 on a line toward a far fusion centre, member 3 beside
    # head 1; at round 5 with p = 0.5 the threshold is 1 and node 3 sat out
    # the epoch, so exactly nodes 0-2 are elected
    CONFIG = ScenarioConfig(nodes=4, fc_x=0.0, fc_y=300.0,
                            p=0.5, protocol="proposed", rounds=10)

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
        assert outcome.cluster_heads.tolist() == [0, 1, 2]
        routes = dict(zip(outcome.senders.tolist(), outcome.relay_to.tolist()))
        assert routes == {0: 1, 1: 2, 2: -1}  # head 1 relays head 0's bits
        # the tree, routes and costs are those of the well-charged run; only
        # the death sweep's fields differ
        swept = ("energy_spent", "deaths", "total_residual", "alive")
        assert same_outcome(replace(outcome, **{f: getattr(full, f) for f in swept}), full)
        # the other nodes pay exactly what they pay when head 1 is well charged
        assert np.array_equal(nodes.energy[[0, 2, 3]], full_nodes.energy[[0, 2, 3]])
        # reception plus aggregation of member 3's bit (55 nJ), reception of
        # head 0's 3-bit table (150 nJ), its own 3-bit relay over 10 m (168 nJ)
        assert 0.5 - full_nodes.energy[1] == pytest.approx(3.73e-7, rel=1e-12)
        assert nodes.energy[1] == 0.0
        assert outcome.deaths.tolist() == [1]
        assert (nodes.energy > 0).tolist() == [True, False, True, True]
        assert outcome.energy_spent == math.fsum(before - nodes.energy)


class TestEmptyBattery:
    """A node whose battery reads 0.0 is dead before the round starts."""

    def test_takes_no_part_in_the_round(self):
        # the two-node worked example with a third, drained node beside the head
        config = ScenarioConfig(nodes=3, fc_x=20.0, fc_y=0.0, p=0.5,
                                clustering="uniform", k=1, rounds=10)
        nodes = nodes_at([0.0, 0.0, 1.0], [0.0, 10.0, 0.0], [0.5, 0.5, 0.0])
        nodes.last_ch_round[1:] = 4
        outcome = run_round(nodes, config, 5, np.random.default_rng(0))
        assert outcome.cluster_heads.tolist() == [0]
        assert outcome.senders.tolist() == [0]
        assert 0.5 - nodes.energy[1] == pytest.approx(5.6e-8, rel=1e-12)
        assert 0.5 - nodes.energy[0] == pytest.approx(1.14e-7, rel=1e-12)  # one member's bit
        assert outcome.energy_spent == pytest.approx(1.7e-7, rel=1e-12)
        assert nodes.energy[2] == 0.0
        assert outcome.deaths.tolist() == []
        assert outcome.alive == 2

    def test_every_battery_empty(self):
        config = ScenarioConfig(nodes=3, rounds=5)
        nodes = nodes_at([0.0, 10.0, 20.0], [0.0] * 3, 0.0)
        with pytest.raises(ValueError, match="run_round requires at least one alive node"):
            run_round(nodes, config, 0, np.random.default_rng(0))
        result = run_simulation(config, nodes=nodes)
        assert result.outcomes == []
        assert result.initial_energy == 0.0
        assert result.final_alive == 0  # no round ran: the nodes' own count

    def test_id_sets_are_intp_arrays(self):
        config = ScenarioConfig(nodes=8, rounds=120, seed=3, energy=TINY_BATTERY)
        outcomes = run_simulation(config).outcomes
        assert any(o.deaths.size for o in outcomes)
        for outcome in outcomes:
            for ids in (outcome.cluster_heads, outcome.deaths):
                assert isinstance(ids, np.ndarray) and ids.dtype == np.intp


class TestZeroHeadRound:
    """A round that elects no head: every alive node sends its own bit
    straight to the fusion centre, with no tree, under either protocol."""

    @staticmethod
    def zero_head_round(protocol, xs, ys, fc, field=100.0, dead=()):
        # nonuniform election at round 3, where every node already served in
        # this epoch, so no node is eligible and nobody is elected
        config = ScenarioConfig(nodes=len(xs), field_width=field, field_height=field,
                                fc_x=fc[0], fc_y=fc[1], protocol=protocol,
                                clustering="nonuniform", rounds=10)
        nodes = nodes_at(xs, ys)
        nodes.last_ch_round[:] = 3
        nodes.energy[list(dead)] = 0.0
        before = nodes.energy.copy()
        outcome = run_round(nodes, config, 3, np.random.default_rng(0))
        assert outcome.cluster_heads.tolist() == []
        assert np.all(outcome.parent == -1)
        return config, nodes, before, outcome

    @pytest.mark.parametrize("protocol", ["baseline", "proposed"])
    def test_every_alive_node_sends_one_bit_direct(self, protocol):
        xs, ys = [10.0, 90.0, 40.0, 0.0, 70.0], [20.0, 0.0, 60.0, 100.0, 30.0]
        fc = (50.0, 250.0)
        config, nodes, before, outcome = self.zero_head_round(protocol, xs, ys, fc, dead=[3])
        assert outcome.senders.tolist() == [0, 1, 2, 4]
        assert outcome.relay_to.tolist() == [-1] * 4
        for node, direct in zip(outcome.senders.tolist(), outcome.direct_cost):
            d_fc = np.hypot(xs[node] - fc[0], ys[node] - fc[1])
            cost = link_cost(config.energy, d_fc)  # one bit, not a four-bit table
            assert direct == cost
            assert nodes.energy[node] == before[node] - cost
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
        config = ScenarioConfig(nodes=2, clustering="nonuniform", rounds=40,
                                seed=11)
        result = run_simulation(config)
        fallback_rounds = [o for o in result.outcomes if not o.cluster_heads.size]
        assert fallback_rounds, "expected at least one zero-head round"
        assert result.first_death_round is None
        for outcome in fallback_rounds:
            assert outcome.senders.tolist() == [0, 1]
            assert outcome.relay_to.tolist() == [-1, -1]
            assert outcome.energy_spent > 0.0


def test_distance_kernel_is_hypot():
    # math.hypot can differ from np.hypot in the last bit; find an offset
    # whose multipath one-bit cost (d^4 shows the bit) differs between them
    params = EnergyParams()
    rng = np.random.default_rng(0)
    for _ in range(100):
        dx, dy = rng.uniform(70.0, 100.0, (2, 1000))
        metres = np.hypot(dx, dy)
        scalar = np.array(list(map(math.hypot, dx.tolist(), dy.tolist())))
        moved = np.flatnonzero(link_cost(params, metres) != link_cost(params, scalar))
        if moved.size:
            break
    else:
        pytest.skip("math.hypot and np.hypot price every sampled offset alike here")
    i = int(moved[0])
    dx, dy, cost = float(dx[i]), float(dy[i]), link_cost(params, float(metres[i]))
    # a battery of twice the cost drops to exactly the cost (Sterbenz), and to
    # another value under any other cost; head 0 sits at the origin, member 1
    # at the offset, and at round 5 with p = 0.5 node 1 sat out the epoch
    config = ScenarioConfig(nodes=2, fc_x=0.0, fc_y=0.0, p=0.5,
                            clustering="uniform", k=1, rounds=10)
    nodes = nodes_at([0.0, dx], [0.0, dy], [0.5, 2 * cost])
    nodes.last_ch_round[1] = 4
    outcome = run_round(nodes, config, 5, np.random.default_rng(0))
    assert outcome.cluster_heads.tolist() == [0]
    assert nodes.energy[1] == cost
    # a lone node at the offset from the fusion centre, in a round that elects no head
    config = ScenarioConfig(nodes=1, fc_x=0.0, fc_y=0.0,
                            clustering="nonuniform", rounds=10)
    nodes = nodes_at([dx], [dy], 2 * cost)
    nodes.last_ch_round[:] = 3
    outcome = run_round(nodes, config, 3, np.random.default_rng(0))
    assert outcome.cluster_heads.tolist() == []
    assert outcome.direct_cost.tolist() == [cost]
    assert nodes.energy[0] == cost


class TestRunSimulation:
    def test_zero_rounds(self):
        result = run_simulation(ScenarioConfig(rounds=0))
        assert result.outcomes == []
        assert result.final_residual == pytest.approx(50.0, rel=1e-12)
        assert result.final_alive == 100
        assert result.first_death_round is None

    def test_row_count_and_numbering(self):
        result = run_simulation(ScenarioConfig(rounds=20, nodes=30))
        assert [o.round_index for o in result.outcomes] == list(range(20))

    def test_deterministic_rerun(self):
        config = ScenarioConfig(rounds=120, nodes=50, protocol="proposed",
                                clustering="uniform", seed=9)
        first = run_simulation(config)
        second = run_simulation(config)
        assert len(first.outcomes) == len(second.outcomes) == 120
        assert all(map(same_outcome, first.outcomes, second.outcomes))

    def test_conservation_and_monotonicity(self):
        for protocol, clustering in (
            ("baseline", "nonuniform"),
            ("proposed", "uniform"),
            ("proposed", "nonuniform"),
        ):
            for seed in (0, 1, 2):
                config = ScenarioConfig(rounds=300, protocol=protocol,
                                        clustering=clustering, seed=seed)
                result = run_simulation(config)
                residuals = np.array([o.total_residual for o in result.outcomes])
                alive = np.array([o.alive for o in result.outcomes])
                spent = np.cumsum([o.energy_spent for o in result.outcomes])
                drained = result.initial_energy - residuals
                assert np.all(np.diff(residuals) <= 0.0)
                assert np.all(np.diff(alive) <= 0)
                assert np.allclose(drained, spent, rtol=1e-9, atol=0.0)

    def test_single_head_proposed_equals_baseline(self):
        base = ScenarioConfig(rounds=250, nodes=40, clustering="uniform",
                              k=1, seed=21)
        baseline = run_simulation(replace(base, protocol="baseline"))
        proposed = run_simulation(replace(base, protocol="proposed"))
        assert [o.total_residual for o in baseline.outcomes] == [
            o.total_residual for o in proposed.outcomes
        ]

    def test_dead_nodes_stay_dead(self):
        config = ScenarioConfig(nodes=8, rounds=120, seed=3,
                                energy=TINY_BATTERY)
        result = run_simulation(config)
        assert result.first_death_round is not None
        dead_after = {}
        for outcome in result.outcomes:
            for head in outcome.cluster_heads.tolist():
                assert head not in dead_after, "dead node elected head"
            for node_id in outcome.deaths.tolist():
                assert node_id not in dead_after, "node died twice"
                dead_after[node_id] = outcome.round_index
        assert dead_after, "expected deaths with a tiny battery"

    def test_extinction_terminates_early(self):
        config = ScenarioConfig(nodes=4, rounds=500, seed=3,
                                energy=TINY_BATTERY)
        result = run_simulation(config)
        assert len(result.outcomes) < 500
        assert result.outcomes[-1].alive == 0
        assert result.outcomes[-1].total_residual == 0.0
        assert result.final_alive == 0

    def test_first_death_round_recorded(self):
        config = ScenarioConfig(nodes=8, rounds=120, seed=3,
                                energy=TINY_BATTERY)
        result = run_simulation(config)
        first = result.first_death_round
        assert first is not None
        with_deaths = [o for o in result.outcomes if o.deaths.size]
        assert first == with_deaths[0].round_index + 1
        for outcome in result.outcomes[: first - 1]:
            assert outcome.deaths.tolist() == []
            assert outcome.alive == 8
        assert result.outcomes[first - 1].alive == 8 - len(with_deaths[0].deaths)

    def test_custom_nodes_override_placement(self):
        config = ScenarioConfig(nodes=3, rounds=5)
        nodes = nodes_at([0.0, 10.0, 20.0], [0.0] * 3)
        result = run_simulation(config, nodes=nodes)
        assert result.initial_energy == pytest.approx(1.5, rel=1e-12)
        assert len(result.outcomes) == 5

    def test_zero_rounds_on_custom_nodes_count_their_alive(self):
        nodes = nodes_at([0.0, 10.0, 20.0], [0.0] * 3, [0.5, 0.0, 0.5])
        result = run_simulation(ScenarioConfig(nodes=3, rounds=0), nodes=nodes)
        assert result.outcomes == []
        assert result.final_alive == 2

    @pytest.mark.parametrize("count", [2, 4])
    def test_nodes_must_number_n_nodes(self, count):
        nodes = nodes_at(np.arange(count, dtype=float), np.zeros(count))
        config = ScenarioConfig(nodes=3, rounds=5)
        with pytest.raises(ValueError, match=f"nodes has {count} entries but config.nodes is 3"):
            run_simulation(config, nodes=nodes)
        with pytest.raises(ValueError, match=f"nodes has {count} entries but config.nodes is 3"):
            run_round(nodes, config, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("name, shape", [
        ("x", (6, 1)), ("y", (7,)), ("energy", (12,)), ("energy", (6, 1)),
        ("last_ch_round", (4,)),
    ])
    def test_every_node_array_must_hold_n_nodes(self, name, shape):
        nodes = nodes_at(np.arange(6, dtype=float), np.zeros(6))
        setattr(nodes, name, np.ones(shape, dtype=getattr(nodes, name).dtype))
        config = ScenarioConfig(nodes=6, rounds=5)
        with pytest.raises(ValueError, match=re.escape(f"nodes.{name} has shape {shape}, not (6,)")):
            run_simulation(config, nodes=nodes)
        with pytest.raises(ValueError, match=re.escape(f"nodes.{name} has shape {shape}, not (6,)")):
            run_round(nodes, config, 0, np.random.default_rng(0))

    def test_repr_does_not_grow_with_rounds(self):
        # 10 and 90 rounds print the config with as many digits
        short, long = (run_simulation(ScenarioConfig(rounds=r)) for r in (10, 90))
        assert len(long.outcomes) == 90
        assert len(repr(short)) == len(repr(long)) < 1000
        assert "RoundOutcome" not in repr(long)


def _round_loop(config, nodes, rng):
    """``run_round`` for rounds 0, 1, ... until ``config.rounds`` or no node is alive."""
    outcomes = []
    for r in range(config.rounds):
        if not (nodes.energy > 0).any():
            break
        outcomes.append(run_round(nodes, config, r, rng))
    return outcomes


class TestRoundLoopMatchesRun:
    """Driving ``run_round`` for rounds 0, 1, ... on nodes placed from the
    same generator is the run ``run_simulation`` records, whichever way it
    runs its rounds: every outcome and the final node state."""

    # A uniform run keeps a table of its heads' metres if it has at most 512
    # nodes (2**18 pairs) and at least nodes / k rounds; else it runs round by
    # round through run_round.
    @pytest.mark.parametrize("clustering, battery, count, rounds, table", [
        ("uniform", 0.5, 60, 80, True), ("uniform", 2e-5, 60, 80, True),
        ("nonuniform", 0.5, 60, 80, False), ("nonuniform", 2e-5, 60, 80, False),
        ("uniform", 0.5, 512, 52, True), ("uniform", 0.5, 513, 52, False),
        ("uniform", 0.5, 100, 10, True), ("uniform", 0.5, 100, 9, False),
    ], ids=["uniform-full", "uniform-depleting", "nonuniform-full", "nonuniform-depleting",
            "uniform-table-at-512-nodes", "uniform-round-by-round-at-513-nodes",
            "uniform-table-at-10-rounds", "uniform-round-by-round-at-9-rounds"])
    @pytest.mark.parametrize("protocol", ["baseline", "proposed"])
    def test_round_loop_equals_run_simulation(
            self, protocol, clustering, battery, count, rounds, table):
        config = ScenarioConfig(protocol=protocol, clustering=clustering, nodes=count,
                                rounds=rounds, fc_y=250.0, seed=9,
                                energy=EnergyParams(initial_energy=battery))
        placed = []
        with mock.patch.object(engine, "place_nodes",
                               lambda *args: placed.append(place_nodes(*args)) or placed[-1]), \
                mock.patch.object(engine, "_run_uniform", wraps=engine._run_uniform) as table_run:
            result = run_simulation(config)
        assert table_run.call_count == table
        rng = np.random.default_rng(config.seed)
        nodes = place_nodes(config, rng)
        outcomes = _round_loop(config, nodes, rng)
        assert len(outcomes) == len(result.outcomes)
        assert all(map(same_outcome, outcomes, result.outcomes))
        assert (battery < 0.5) == any(o.deaths.size for o in outcomes)
        for name, array in vars(nodes).items():
            assert array.tobytes() == getattr(placed[0], name).tobytes(), name

    # Each layout has a link that link_cost cannot price. The run keeps its table
    # and prices only each round's links, as run_round does: it finishes, or raises
    # run_round's error in run_round's round, leaving the loop's node state.
    @pytest.mark.parametrize("case", [
        "far-pair-that-no-round-uses", "non-finite-position", "non-finite-head-position",
        "fusion-centre-links-overflow"])
    @pytest.mark.parametrize("protocol", ["baseline", "proposed"])
    def test_unpriceable_links_end_as_the_round_loop_ends(self, protocol, case):
        xs, ys, fc = [0.0, 3.0, 0.0, 10.0, 20.0, 40.0], [0.0, 4.0, 5.0, 0.0, 30.0, 60.0], 0.0
        if case == "far-pair-that-no-round-uses":
            # every node heads: the tree joins each far node to the near ones (6e76 m,
            # d^4 finite), never to the other far one (1.2e77 m, d^4 overflows)
            xs[3:5], ys[3:5] = [-6e76, 6e76], [0.0, 0.0]
        elif case != "fusion-centre-links-overflow":  # as a head, no tree can hold it
            xs[4] = math.nan
        else:  # every node's direct send is 1e80 m
            fc = 1e80
        count = 2 if case in ("non-finite-position", "fusion-centre-links-overflow") else 6
        config = ScenarioConfig(protocol=protocol, clustering="uniform", nodes=6, k=count,
                                p=1.0 if count == 6 else 0.5, rounds=5, fc_x=0.0, fc_y=fc,
                                seed=4)
        energy = np.full(6, 1e300)  # a 6e76 m send costs about 1.7e291 J a bit
        got_nodes, want_nodes = nodes_at(xs, ys, energy), nodes_at(xs, ys, energy)
        with mock.patch.object(engine, "_run_uniform", wraps=engine._run_uniform) as table_run:
            try:
                want = _round_loop(config, want_nodes, np.random.default_rng(config.seed))
            except (ValueError, OverflowError) as err:
                assert case != "far-pair-that-no-round-uses"
                with pytest.raises(type(err)) as got:
                    run_simulation(config, got_nodes)
                assert str(got.value) == str(err)
            else:
                assert case == "far-pair-that-no-round-uses" and len(want) == config.rounds
                got = run_simulation(config, got_nodes).outcomes
                assert len(got) == len(want) and all(map(same_outcome, got, want))
        assert table_run.call_count == 1
        for name, array in vars(got_nodes).items():
            assert array.tobytes() == getattr(want_nodes, name).tobytes(), name

    # Two far nodes 1.2e77 m apart: a round that links one to the other cannot be
    # priced (d^4 overflows), a round that links each to a near node can. A block
    # that holds such a round falls back to run_round for its first round; the
    # run then raises the loop's error in the loop's round, or a death removes
    # the far node (battery 1e291 J, below one 6e76 m send) before that round.
    @pytest.mark.parametrize("case, battery, seeds, fallbacks", [
        ("a-block-starts-with-the-unpriceable-round", 1e300, (3, 3), (1, 1)),
        ("a-later-round-of-the-block-is-unpriceable", 1e300, (8, 0), (2, 2)),
        ("a-death-removes-the-unpriceable-link", 1e291, (15, 0), (1, 1)),
    ])
    @pytest.mark.parametrize("protocol", ["baseline", "proposed"])
    def test_unpriceable_block_ends_as_the_round_loop_ends(
            self, protocol, case, battery, seeds, fallbacks):
        xs, ys, energy = [1.0, 0.0, -6e76, 6e76], [0.0, 1.0, 0.0, 0.0], [1e300] * 4
        energy[2] = battery
        at = protocol == "proposed"
        config = ScenarioConfig(protocol=protocol, clustering="nonuniform", nodes=4, p=0.5,
                                rounds=6, fc_x=0.0, fc_y=0.0, seed=seeds[at])
        got_nodes, want_nodes = nodes_at(xs, ys, energy), nodes_at(xs, ys, energy)
        with mock.patch.object(engine, "run_round", wraps=engine.run_round) as fallback:
            try:
                want = _round_loop(config, want_nodes, np.random.default_rng(config.seed))
            except OverflowError as err:
                assert case != "a-death-removes-the-unpriceable-link"
                with pytest.raises(OverflowError) as got:
                    run_simulation(config, got_nodes)
                assert str(got.value) == str(err)
            else:
                assert case == "a-death-removes-the-unpriceable-link"
                got = run_simulation(config, got_nodes).outcomes
                assert len(got) == len(want) and all(map(same_outcome, got, want))
                assert got_nodes.energy[2] == 0.0
        assert fallback.call_count == fallbacks[at]
        for name, array in vars(got_nodes).items():
            assert array.tobytes() == getattr(want_nodes, name).tobytes(), name


# Up to 512 nodes a uniform run holds one n x n table of metres and under 1 MiB
# of round temporaries and outcomes; above 512 nodes it holds no n x n float array.
@pytest.mark.parametrize("count", [512, 513, 1000])
def test_uniform_run_memory_stays_bounded(count):
    config = ScenarioConfig(protocol="proposed", clustering="uniform", nodes=count,
                            rounds=52, seed=3)  # 52 * k >= 512: the table path
    run_simulation(replace(config, nodes=12))  # the modules a first run imports are not counted
    tracemalloc.start()
    try:
        run_simulation(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 8 * count**2 + 2**20 if count <= 512 else 8 * count**2
    assert peak < bound, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("count", [1000, 100], ids=["ring-search", "dense-search"])
def test_threaded_runs_equal_serial_runs(count):
    # One election epoch of four seeds; at 1000 nodes ~100 heads take the ring
    # search of assign_members, at 100 nodes ~10 heads the dense one. A short
    # switch interval interleaves the threads inside every numpy-heavy step.
    configs = [ScenarioConfig(nodes=count, rounds=10, seed=seed) for seed in range(1, 5)]
    serial = [run_simulation(config).outcomes for config in configs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            with ThreadPoolExecutor(4) as pool:
                threaded = list(pool.map(run_simulation, configs, timeout=60))
            for result, want in zip(threaded, serial):
                assert len(result.outcomes) == len(want)
                assert all(map(same_outcome, result.outcomes, want))
    finally:
        sys.setswitchinterval(interval)


class TestStream:
    """A run's stream hands out its generator's own draws: each round's doubles
    are those of ``integers(0, 2, size=a)`` then ``random(a)`` on a twin
    generator, over odd and even alive counts, in takes of one round or many,
    after seeks back to any cursor still held and across refills.
    This pins how numpy's generator shares 64-bit words between bits and
    doubles."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 64), st.data())
    def test_takes_equal_the_generators_draws(self, seed, refill, data):
        twin = np.random.default_rng(seed)
        with mock.patch.object(engine, "_REFILL", refill):  # small refills, often crossed
            stream = engine._Stream(np.random.default_rng(seed))
            marks = [(stream.cursor, twin.bit_generator.state)]
            for _ in range(data.draw(st.integers(1, 30))):
                kind = data.draw(st.sampled_from(["round", "rounds", "seek"]))
                if kind == "seek":
                    held = [mark for mark in marks if mark[0][0] >= stream.base]
                    stream.cursor, twin.bit_generator.state = data.draw(st.sampled_from(held))
                    continue
                a, count = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 5))
                if kind == "round":
                    count = 1
                want = [(twin.integers(0, 2, size=a), twin.random(a))[1] for _ in range(count)]
                if kind == "round":
                    stream.integers(0, 2, size=a)
                    assert stream.random(a).tolist() == want[0].tolist()
                else:
                    assert stream.rounds(a, count).tolist() == np.array(want).tolist()
                marks.append((stream.cursor, twin.bit_generator.state))
