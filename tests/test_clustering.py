import numpy as np
import pytest

from crwsnsim import (
    assign_members,
    elect_cluster_heads,
    election_threshold,
    eligible_mask,
    epoch_length,
)

from helpers import nodes_at


def make_nodes(count, energy=0.5, spacing=1.0):
    return nodes_at(spacing * np.arange(count), np.zeros(count), energy)


def eligible(nodes, ch_probability, round_index):
    return frozenset(np.flatnonzero(eligible_mask(nodes, ch_probability, round_index)).tolist())


def member_of(nodes, cluster_heads):
    members, heads = assign_members(nodes, cluster_heads)
    return dict(zip(members.tolist(), heads.tolist()))


class FixedDraws:
    """Generator stand-in returning a constant uniform draw."""

    def __init__(self, value):
        self.value = value

    def random(self, size):
        return np.full(size, self.value)


class TestElectionThreshold:
    def test_epoch_start(self):
        assert election_threshold(0.1, 0) == pytest.approx(0.1, rel=1e-12)

    def test_epoch_end_reaches_one(self):
        assert election_threshold(0.1, 9) == 1.0

    def test_wraps_with_epoch(self):
        assert election_threshold(0.1, 10) == election_threshold(0.1, 0)
        assert election_threshold(0.1, 23) == election_threshold(0.1, 3)

    def test_clamped_to_one(self):
        # p = 0.6 -> epoch 2, offset 1 gives 0.6 / 0.4 = 1.5 before the clamp
        assert election_threshold(0.6, 1) == 1.0

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            election_threshold(0.0, 0)
        with pytest.raises(ValueError):
            election_threshold(1.1, 0)
        with pytest.raises(ValueError):  # 1/p overflows: no epoch length
            election_threshold(5e-309, 0)
        with pytest.raises(ValueError):
            epoch_length(5e-309)
        with pytest.raises(ValueError):
            election_threshold(0.1, -1)

    def test_epoch_length(self):
        assert epoch_length(0.1) == 10
        assert epoch_length(1.0) == 1
        assert epoch_length(0.3) == 3


class TestElectionState:
    """The eligible set of one round's election, as ``eligible_mask`` gives it."""

    def test_all_eligible_initially(self):
        nodes = make_nodes(5)
        assert eligible(nodes, 0.1, 0) == frozenset(range(5))

    def test_served_node_sits_out_rest_of_epoch(self):
        nodes = make_nodes(3)
        nodes.last_ch_round[1] = 3
        for r in range(4, 10):
            assert 1 not in eligible(nodes, 0.1, r)

    def test_eligibility_restored_at_epoch_boundary(self):
        nodes = make_nodes(3)
        nodes.last_ch_round[0] = 9
        nodes.last_ch_round[1] = 2
        assert eligible(nodes, 0.1, 10) == frozenset(range(3))

    def test_dead_nodes_excluded(self):
        nodes = make_nodes(3)
        nodes.alive[2] = False
        assert eligible(nodes, 0.1, 0) == frozenset({0, 1})


class TestElectClusterHeads:
    def test_requires_alive_node(self):
        nodes = make_nodes(2)
        nodes.alive[:] = False
        with pytest.raises(ValueError):
            elect_cluster_heads(nodes, 0.1, 0, "nonuniform", 10, FixedDraws(0.5))

    def test_zero_heads_is_valid_nonuniform(self):
        nodes = make_nodes(5)
        heads = elect_cluster_heads(nodes, 0.1, 0, "nonuniform", 10, FixedDraws(0.999))
        assert heads == []

    def test_single_node_forced_promotion(self):
        nodes = make_nodes(1)
        heads = elect_cluster_heads(nodes, 0.1, 0, "uniform", 1, FixedDraws(0.999))
        assert heads == [0]
        assert nodes.last_ch_round[0] == 0

    def test_uniform_trims_to_highest_energy(self):
        nodes = make_nodes(5)
        for i in range(5):
            nodes.energy[i] = 0.1 * (5 - i)  # ids 0..4 get 0.5 .. 0.1
        heads = elect_cluster_heads(nodes, 0.1, 0, "uniform", 2, FixedDraws(0.0))
        assert heads == [0, 1]

    def test_uniform_trim_ties_break_by_id(self):
        nodes = make_nodes(5)
        heads = elect_cluster_heads(nodes, 0.1, 0, "uniform", 3, FixedDraws(0.0))
        assert heads == [0, 1, 2]

    def test_promotion_prefers_eligible_then_energy(self):
        nodes = make_nodes(4)
        nodes.energy[:] = [0.3, 0.9, 0.5, 0.5]
        nodes.last_ch_round[1] = 2  # served this epoch: not eligible
        heads = elect_cluster_heads(nodes, 0.1, 5, "uniform", 3, FixedDraws(0.999))
        # eligible nodes first by descending energy (2 and 3 tie -> lower id), then 0
        assert heads == [0, 2, 3]
        assert all(nodes.last_ch_round[i] == 5 for i in heads)
        assert nodes.last_ch_round[1] == 2

    def test_uniform_count_capped_by_alive(self):
        nodes = make_nodes(3)
        nodes.alive[2] = False
        heads = elect_cluster_heads(nodes, 0.5, 0, "uniform", 3, FixedDraws(0.0))
        assert heads == [0, 1]

    def test_each_node_serves_exactly_once_per_epoch(self):
        nodes = make_nodes(100)
        rng = np.random.default_rng(77)
        served = {i: [0] * 10 for i in range(100)}
        for r in range(100):
            for head in elect_cluster_heads(nodes, 0.1, r, "nonuniform", 10, rng):
                served[head][r // 10] += 1
        for node_id, counts in served.items():
            assert counts == [1] * 10, f"node {node_id} served {counts}"

    def test_epoch_can_leave_nodes_unserved(self):
        # p = 0.3: a 3-round epoch whose last threshold is 0.3 / 0.4 = 0.75,
        # so an eligible node may still draw above it and never serve
        assert election_threshold(0.3, 2) == pytest.approx(0.75, rel=1e-12)
        nodes = make_nodes(1000)
        rng = np.random.default_rng(1)
        served = []
        for r in range(3):
            served += elect_cluster_heads(nodes, 0.3, r, "nonuniform", 10, rng)
        assert len(served) == len(set(served))
        assert len(served) < 1000

    def test_mean_head_count_matches_probability(self):
        nodes = make_nodes(100)
        rng = np.random.default_rng(123)
        counts = []
        for r in range(1000):
            counts.append(len(elect_cluster_heads(nodes, 0.1, r, "nonuniform", 10, rng)))
        assert 9.0 <= np.mean(counts) <= 11.0

    def test_no_repeat_within_epoch(self):
        nodes = make_nodes(60)
        rng = np.random.default_rng(3)
        for epoch in range(20):
            seen = set()
            for r in range(epoch * 10, epoch * 10 + 10):
                heads = elect_cluster_heads(nodes, 0.1, r, "nonuniform", 10, rng)
                assert not seen.intersection(heads)
                seen.update(heads)

    def test_uniform_exact_count_every_round(self):
        nodes = make_nodes(50)
        rng = np.random.default_rng(8)
        for r in range(200):
            heads = elect_cluster_heads(nodes, 0.1, r, "uniform", 5, rng)
            assert len(heads) == 5
            assert len(set(heads)) == 5

    def test_same_seed_same_sequence(self):
        histories = []
        for _ in range(2):
            nodes = make_nodes(40)
            rng = np.random.default_rng(42)
            history = []
            for r in range(50):
                history.append(elect_cluster_heads(nodes, 0.1, r, "nonuniform", 10, rng))
            histories.append(history)
        assert histories[0] == histories[1]


class TestAssignMembers:
    def test_single_head_takes_all(self):
        nodes = make_nodes(4)
        assert member_of(nodes, [2]) == {0: 2, 1: 2, 3: 2}

    def test_tie_goes_to_lower_head_id(self):
        # live ids 0, 3, 5 and 7; the rest are dead
        nodes = nodes_at([0.0, 0.0, 0.0, 10.0, 0.0, 5.0, 0.0, 10.0], np.zeros(8))
        nodes.alive[[1, 2, 4, 6]] = False
        assignment = member_of(nodes, [3, 7])
        assert assignment[5] == 3
        assert assignment[0] == 3

    def test_corner_nodes_join_nearer_head(self):
        corners = nodes_at([0.0, 0.0, 100.0, 100.0], [0.0, 100.0, 0.0, 100.0])
        # both free corners sit exactly 100 m from each head: lower id wins
        assert member_of(corners, [0, 3]) == {1: 0, 2: 0}

    def test_dead_nodes_not_assigned(self):
        nodes = make_nodes(4)
        nodes.alive[1] = False
        assert 1 not in member_of(nodes, [0])

    def test_requires_heads(self):
        with pytest.raises(ValueError):
            assign_members(make_nodes(3), [])

    def test_returns_assignment_type(self):
        members, heads = assign_members(make_nodes(3), [1])
        assert members.dtype.kind == heads.dtype.kind == "i"
        assert members.tolist() == [0, 2] and heads.tolist() == [1, 1]
