import inspect
import math
import multiprocessing
import resource
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crwsnsim import (
    assign_members,
    elect_cluster_heads,
    election_threshold,
    epoch_length,
)

from crwsnsim.clustering import elect_block, nearest_heads

from helpers import dense_assign_members, loop_election, minor_faults, nodes_at


def make_nodes(count, energy=0.5, spacing=1.0):
    return nodes_at(spacing * np.arange(count), np.zeros(count), energy)


def member_of(nodes, cluster_heads):
    members, heads = assign_members(nodes, cluster_heads)
    return dict(zip(members.tolist(), heads.tolist()))


class FixedDraws:
    """Generator stand-in returning a constant uniform draw."""

    def __init__(self, value):
        self.value = value

    def random(self, size):
        return np.full(size, self.value)


def eligible(nodes, p, round_index):
    """The eligible set: on a copy of the nodes, a non-uniform election in
    which every draw is 0.0 elects exactly the eligible nodes."""
    trial = replace(nodes, last_ch_round=nodes.last_ch_round.copy())
    heads = elect_cluster_heads(trial, p, round_index, "nonuniform", 1, FixedDraws(0.0))
    return frozenset(heads.tolist())


def test_election_parameters_are_p_and_k():
    for function, names in (
        (epoch_length, ["p"]),
        (election_threshold, ["p", "round_index"]),
        (elect_cluster_heads, ["nodes", "p", "round_index", "clustering", "k", "rng"]),
    ):
        assert list(inspect.signature(function).parameters) == names
    with pytest.raises(ValueError, match=r"^p must be in"):
        epoch_length(p=0.0)


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
        # p * (round(1/p) - 1) rounds to 1.0: a zero denominator at the epoch's end
        assert election_threshold(1e-20, epoch_length(1e-20) - 1) == 1.0

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


class TestEligibility:
    """The eligible set of one round's election: the alive nodes that have
    not served in the current epoch."""

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
        nodes.energy[2] = 0.0
        assert eligible(nodes, 0.1, 0) == frozenset({0, 1})


class TestElectClusterHeads:
    def test_requires_alive_node(self):
        nodes = make_nodes(2)
        nodes.energy[:] = 0.0
        with pytest.raises(ValueError):
            elect_cluster_heads(nodes, 0.1, 0, "nonuniform", 10, FixedDraws(0.5))

    def test_zero_heads_is_valid_nonuniform(self):
        nodes = make_nodes(5)
        heads = elect_cluster_heads(nodes, 0.1, 0, "nonuniform", 10, FixedDraws(0.999))
        assert heads.tolist() == []

    def test_single_node_forced_promotion(self):
        nodes = make_nodes(1)
        heads = elect_cluster_heads(nodes, 0.1, 0, "uniform", 1, FixedDraws(0.999))
        assert heads.tolist() == [0]
        assert nodes.last_ch_round[0] == 0

    def test_uniform_trims_to_highest_energy(self):
        nodes = make_nodes(5)
        for i in range(5):
            nodes.energy[i] = 0.1 * (5 - i)  # ids 0..4 get 0.5 .. 0.1
        heads = elect_cluster_heads(nodes, 0.1, 0, "uniform", 2, FixedDraws(0.0))
        assert heads.tolist() == [0, 1]

    def test_uniform_trim_ties_break_by_id(self):
        nodes = make_nodes(5)
        heads = elect_cluster_heads(nodes, 0.1, 0, "uniform", 3, FixedDraws(0.0))
        assert heads.tolist() == [0, 1, 2]

    def test_promotion_prefers_eligible_then_energy(self):
        nodes = make_nodes(4)
        nodes.energy[:] = [0.3, 0.9, 0.5, 0.5]
        nodes.last_ch_round[1] = 2  # served this epoch: not eligible
        heads = elect_cluster_heads(nodes, 0.1, 5, "uniform", 3, FixedDraws(0.999))
        # eligible nodes first by descending energy (2 and 3 tie -> lower id), then 0
        assert heads.tolist() == [0, 2, 3]
        assert all(nodes.last_ch_round[i] == 5 for i in heads)
        assert nodes.last_ch_round[1] == 2
        # k equals the alive count: node 1, served this epoch, is promoted again
        nodes.last_ch_round[:] = [-1, 2, -1, -1]
        heads = elect_cluster_heads(nodes, 0.1, 5, "uniform", 4, FixedDraws(0.999))
        assert heads.tolist() == [0, 1, 2, 3]
        assert nodes.last_ch_round.tolist() == [5, 5, 5, 5]

    def test_uniform_count_capped_by_alive(self):
        nodes = make_nodes(3)
        nodes.energy[2] = 0.0
        heads = elect_cluster_heads(nodes, 0.5, 0, "uniform", 3, FixedDraws(0.0))
        assert heads.tolist() == [0, 1]

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
            served += elect_cluster_heads(nodes, 0.3, r, "nonuniform", 10, rng).tolist()
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
                heads = elect_cluster_heads(nodes, 0.1, r, "nonuniform", 10, rng).tolist()
                assert not seen.intersection(heads)
                seen.update(heads)

    def test_uniform_exact_count_every_round(self):
        nodes = make_nodes(50)
        rng = np.random.default_rng(8)
        for r in range(200):
            heads = elect_cluster_heads(nodes, 0.1, r, "uniform", 5, rng).tolist()
            assert len(heads) == 5
            assert len(set(heads)) == 5

    @pytest.mark.parametrize("clustering", ["uniform", "nonuniform"])
    @settings(max_examples=300, deadline=None)
    @given(
        layout=st.integers(1, 60).flatmap(lambda n: st.tuples(
            st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.5]), min_size=n, max_size=n),
            st.lists(st.integers(-1, 59), min_size=n, max_size=n),
            st.integers(1, n + 2),
        )),
        p=st.sampled_from([0.1, 0.15, 0.2, 0.3, 0.5, 1.0]),
        round_index=st.integers(0, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_loop_election(self, clustering, layout, p, round_index, seed):
        # energies from a small set, so ties occur, and 0.0 is a dead node;
        # each node last served in this epoch, an earlier one, or never (-1)
        energies, served, k = layout
        assume(any(energies))
        ours, oracle = (make_nodes(len(energies), energies) for _ in range(2))
        for nodes in (ours, oracle):
            nodes.last_ch_round[:] = np.minimum(served, round_index - 1)
        heads = elect_cluster_heads(ours, p, round_index, clustering, k,
                                    np.random.default_rng(seed))
        expected = loop_election(oracle, p, round_index, clustering, k,
                                 np.random.default_rng(seed))
        assert heads.dtype == expected.dtype
        assert heads.tolist() == expected.tolist()
        assert ours.last_ch_round.tolist() == oracle.last_ch_round.tolist()

    @settings(max_examples=300, deadline=None)
    @given(
        layout=st.integers(1, 40).flatmap(lambda n: st.tuples(
            st.lists(st.sampled_from([0.0, 0.1, 0.5]), min_size=n, max_size=n),
            st.lists(st.integers(-1, 90), min_size=n, max_size=n),
        )),
        p=st.sampled_from([0.1, 0.15, 0.2, 0.3, 0.5, 1.0]),
        first_round=st.integers(0, 60),
        rows=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_over_epochs_equals_loop_election(self, layout, p, first_round, rows, seed):
        # a block of up to 40 rounds crosses up to 40 epoch seams (p = 1); a node
        # last served before the block, in its first epoch, or after it starts
        energies, served = layout
        assume(any(energies))
        ours, oracle = (make_nodes(len(energies), energies) for _ in range(2))
        for nodes in (ours, oracle):
            nodes.last_ch_round[:] = served
        alive = np.flatnonzero(ours.energy > 0)
        rng = np.random.default_rng(seed)
        elected = elect_block(ours, p, first_round, np.array([rng.random(alive.size)
                                                             for _ in range(rows)]))
        assert elected.shape == (rows, alive.size)
        rng = np.random.default_rng(seed)
        for row, r in zip(elected, range(first_round, first_round + rows)):
            heads = loop_election(oracle, p, r, "nonuniform", 1, rng)
            assert alive[row].tolist() == heads.tolist(), r
        assert ours.last_ch_round.tolist() == oracle.last_ch_round.tolist()

    def test_same_seed_same_sequence(self):
        histories = []
        for _ in range(2):
            nodes = make_nodes(40)
            rng = np.random.default_rng(42)
            history = []
            for r in range(50):
                history.append(elect_cluster_heads(nodes, 0.1, r, "nonuniform", 10, rng).tolist())
            histories.append(history)
        assert histories[0] == histories[1]


class TestAssignMembers:
    def test_single_head_takes_all(self):
        nodes = make_nodes(4)
        assert member_of(nodes, [2]) == {0: 2, 1: 2, 3: 2}

    def test_tie_goes_to_lower_head_id(self):
        # live ids 0, 3, 5 and 7; the rest are dead
        nodes = nodes_at([0.0, 0.0, 0.0, 10.0, 0.0, 5.0, 0.0, 10.0], np.zeros(8))
        nodes.energy[[1, 2, 4, 6]] = 0.0
        assignment = member_of(nodes, [3, 7])
        assert assignment[5] == 3
        assert assignment[0] == 3

    def test_corner_nodes_join_nearer_head(self):
        corners = nodes_at([0.0, 0.0, 100.0, 100.0], [0.0, 100.0, 0.0, 100.0])
        # both free corners sit exactly 100 m from each head: lower id wins
        assert member_of(corners, [0, 3]) == {1: 0, 2: 0}

    def test_dead_nodes_not_assigned(self):
        nodes = make_nodes(4)
        nodes.energy[1] = 0.0
        assert 1 not in member_of(nodes, [0])

    def test_requires_heads(self):
        with pytest.raises(ValueError):
            assign_members(make_nodes(3), [])

    def test_returns_assignment_type(self):
        members, heads = assign_members(make_nodes(3), [1])
        assert members.dtype.kind == heads.dtype.kind == "i"
        assert members.tolist() == [0, 2] and heads.tolist() == [1, 1]


class TestDrainedBattery:
    """A node whose battery reads 0.0 is dead: it is never eligible, elected,
    promoted or assigned, whatever its draw or the head count asked for."""

    def test_never_eligible_or_elected(self):
        nodes = make_nodes(4, energy=[0.5, 0.0, 0.5, 0.0])
        assert eligible(nodes, 1.0, 0) == frozenset({0, 2})
        heads = elect_cluster_heads(nodes, 1.0, 0, "nonuniform", 10, FixedDraws(0.0))
        assert heads.tolist() == [0, 2]
        assert nodes.last_ch_round.tolist() == [0, -1, 0, -1]

    def test_never_promoted(self):
        # nobody draws below the threshold, so uniform mode promotes; only
        # the two charged nodes can fill the four places asked for
        nodes = make_nodes(4, energy=[0.0, 0.5, 0.0, 0.5])
        heads = elect_cluster_heads(nodes, 0.5, 0, "uniform", 4, FixedDraws(0.999))
        assert heads.tolist() == [1, 3]
        assert nodes.last_ch_round.tolist() == [-1, 0, -1, 0]

    def test_never_assigned(self):
        nodes = make_nodes(4, energy=[0.5, 0.0, 0.5, 0.5])
        assert member_of(nodes, [0]) == {2: 0, 3: 0}

    def test_heads_are_a_sorted_intp_array(self):
        nodes = make_nodes(30, energy=np.linspace(0.01, 0.3, 30))
        heads = elect_cluster_heads(nodes, 0.1, 0, "uniform", 7, FixedDraws(0.0))
        assert heads.dtype == np.intp
        assert heads.tolist() == list(range(23, 30))


def square_near_tie():
    """A member (px, py) and heads a and b (ax, ay) 3 m from it whose squared
    metres tie or put a first while np.hypot puts a strictly farther, from a
    seeded search. With the lower id, a wins any ranking by squares alone; b
    is the nearest."""
    rng = np.random.default_rng(0)
    while True:
        px, py = rng.uniform(40.0, 50.0, 2)
        angle = rng.uniform(0.0, 2.0 * math.pi, (2, 1000))
        ax, ay = px + 3.0 * np.cos(angle), py + 3.0 * np.sin(angle)
        dx, dy = px - ax, py - ay
        dists, squares = np.hypot(dx, dy), dx * dx + dy * dy
        found = np.flatnonzero((dists[0] > dists[1]) & (squares[0] <= squares[1]))
        if found.size:
            return px, py, ax[:, found[0]], ay[:, found[0]]


def assert_matches_dense(nodes, cluster_heads):
    members, heads = assign_members(nodes, cluster_heads)
    want_members, want_heads = dense_assign_members(nodes, cluster_heads)
    assert members.tolist() == want_members.tolist()
    assert heads.tolist() == want_heads.tolist()


def _layout(kind, rng, count):
    """Coordinates of ``count`` nodes in one of the layouts the grid must survive."""
    if kind == "random":
        return rng.uniform(0.0, 200.0, count), rng.uniform(0.0, 200.0, count)
    if kind == "lattice":  # small integer lattice: exact distance ties and coincident nodes
        return rng.integers(0, 12, count).astype(float), rng.integers(0, 12, count).astype(float)
    if kind == "coincident":  # a few sites, many nodes on each
        sites = rng.uniform(0.0, 100.0, (2, 5))
        pick = rng.integers(0, 5, count)
        return sites[0][pick], sites[1][pick]
    if kind == "strip":
        return rng.uniform(0.0, 1000.0, count), rng.uniform(0.0, 1.0, count)
    if kind == "huge":  # squared metres overflow to inf
        xs, ys = _layout("random", rng, count)
        return xs * 1e160, ys * 1e160
    if kind == "tiny":  # squared metres fall into and below the subnormals
        xs, ys = _layout("random", rng, count)
        return xs * 3e-163, ys * 3e-163
    raise AssertionError(kind)


class TestAssignMembersMatchesDense:
    """The grid search returns the dense search's members and heads exactly."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["random", "lattice", "coincident", "strip", "one-cell", "huge", "tiny"]),
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_equals_dense_oracle(self, kind, head_count, member_count, seed):
        rng = np.random.default_rng(seed)
        count = head_count + member_count
        xs, ys = _layout("random" if kind == "one-cell" else kind, rng, count)
        heads = rng.choice(count, head_count, replace=False)
        if kind == "one-cell":  # every head inside a 1 mm box amid spread members
            xs[heads] = 100.0 + rng.uniform(0.0, 1e-3, head_count)
            ys[heads] = 100.0 + rng.uniform(0.0, 1e-3, head_count)
        nodes = nodes_at(xs, ys)
        dead = rng.random(count) >= 0.9  # some dead nodes
        dead[heads] = False
        nodes.energy[dead] = 0.0
        assert_matches_dense(nodes, heads.tolist())

    @pytest.mark.parametrize("head_count", [63, 64, 400])
    def test_zero_members(self, head_count):
        rng = np.random.default_rng(head_count)
        nodes = nodes_at(*_layout("random", rng, head_count + 3))
        nodes.energy[head_count:] = 0.0
        members, heads = assign_members(nodes, list(range(head_count)))
        assert members.size == heads.size == 0

    def _holed_lattice(self, hole):
        """Heads on a 10 x 10 lattice of 10 m pitch, less a ``hole`` x ``hole``
        block at the centre."""
        grid = np.arange(10) * 10.0
        xs, ys = np.repeat(grid, 10), np.tile(grid, 10)
        lo, hi = 10.0 * (5 - hole // 2), 10.0 * (4 + hole - hole // 2)
        keep = ~((lo <= xs) & (xs <= hi) & (lo <= ys) & (ys <= hi))
        return xs[keep], ys[keep]

    @pytest.mark.parametrize("hole, ring", [(4, 3), (6, 4)])
    def test_member_in_a_hole_widens_the_ring(self, hole, ring):
        # The member at (45, 45) is at least ring - 1 cell sides from every head.
        # hole 4: 84 heads, 10 m cells of one head each: ring 3 accepts.
        # hole 6: 64 heads, 11.25 m cells of up to 4 heads: ring 2 would hold
        # 100 candidate slots (>= k), so the dense search settles it.
        hx, hy = self._holed_lattice(hole)
        side = max(np.ptp(hx), np.ptp(hy)) / math.isqrt(hx.size)
        dists = np.hypot(hx - 45.0, hy - 45.0)
        assert (ring - 1) * side <= dists.min() < ring * side
        assert np.sum(dists == dists.min()) > 1  # the tie rule decides
        assert_matches_dense(nodes_at(np.append(hx, 45.0), np.append(hy, 45.0)),
                             list(range(hx.size)))

    def test_square_near_tie_is_settled_by_hypot(self):
        px, py, ax, ay = square_near_tie()
        hx, hy = self._holed_lattice(4)  # 84 heads, 10 m cells, none within 20 m
        nodes = nodes_at(np.concatenate((hx, ax, [px])), np.concatenate((hy, ay, [py])))
        members, heads = assign_members(nodes, list(range(hx.size + 2)))
        assert members.tolist() == [hx.size + 2] and heads.tolist() == [hx.size + 1]
        assert_matches_dense(nodes, list(range(hx.size + 2)))

    def test_far_members_fall_back_to_every_head(self):
        hx, hy = self._holed_lattice(4)
        far = np.array([[1e4, 1e4], [-500.0, 45.0], [45.0, 1e6], [-1e300, 1e300]])
        nodes = nodes_at(np.append(hx, far[:, 0]), np.append(hy, far[:, 1]))
        assert_matches_dense(nodes, list(range(hx.size)))

    def test_busy_cell_uses_dense_search(self):
        # 100 heads, 30 of them stacked on one point: 9 cells can hold k heads
        rng = np.random.default_rng(5)
        xs, ys = rng.uniform(0.0, 100.0, 400), rng.uniform(0.0, 100.0, 400)
        xs[:30], ys[:30] = 50.0, 50.0
        assert_matches_dense(nodes_at(xs, ys), list(range(100)))

    def test_memory_stays_bounded(self):
        rng = np.random.default_rng(7)
        nodes = nodes_at(rng.uniform(0.0, 100.0, 10_000), rng.uniform(0.0, 100.0, 10_000))
        heads = rng.choice(10_000, 1000, replace=False).tolist()
        tracemalloc.start()
        try:
            assign_members(nodes, heads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def assert_stack_matches_dense(nodes, rounds):
    """``nearest_heads`` on every alive node against each round's heads,
    padded with +inf heads into one stack, then on each round alone, gives
    the dense oracle's member heads."""
    x, y = nodes.x, nodes.y
    hx = np.full((len(rounds), max(map(len, rounds)), 1), math.inf)
    hy = hx.copy()
    for r, heads in enumerate(rounds):
        hx[r, :len(heads), 0], hy[r, :len(heads), 0] = x[heads], y[heads]
    stacked = nearest_heads(x, y, hx, hy)
    for r, heads in enumerate(rounds):
        members, want = dense_assign_members(nodes, heads)
        alone = nearest_heads(x[members], y[members], x[heads][:, None], y[heads][:, None])
        assert heads[stacked[r, members]].tolist() == heads[alone].tolist() == want.tolist()


class TestNearestHeads:
    """The one dense nearest-head kernel, on one round and on a stack of
    rounds, equals the dense search by np.hypot."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["random", "lattice", "coincident", "strip", "huge", "tiny"]),
        st.lists(st.integers(min_value=1, max_value=80), min_size=1, max_size=6),
        st.integers(min_value=0, max_value=120),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_stack_equals_dense_oracle(self, kind, head_counts, member_count, seed):
        rng = np.random.default_rng(seed)
        count = max(head_counts) + member_count
        nodes = nodes_at(*_layout(kind, rng, count))
        assert_stack_matches_dense(
            nodes, [np.sort(rng.choice(count, k, replace=False)) for k in head_counts])

    def test_square_near_tie_in_one_row_of_a_stack(self):
        # row 1 holds the tied heads a and b beside far heads; rows 0 and 2 others
        px, py, ax, ay = square_near_tie()
        rng = np.random.default_rng(4)
        xs, ys = rng.uniform(0.0, 100.0, (2, 30))
        nodes = nodes_at(np.concatenate((ax, [px], xs)), np.concatenate((ay, [py], ys)))
        tied = np.array([0, 1, *np.flatnonzero(np.hypot(xs - px, ys - py) > 20.0)[:5] + 3])
        rounds = [np.arange(3, 13), tied, np.array([0, 2, 20])]
        assert_stack_matches_dense(nodes, rounds)
        members, heads = dense_assign_members(nodes, tied)
        assert heads[members.tolist().index(2)] == 1  # b, though its square is not below a's


def _grid_depth(hx, hy):
    """Heads in the busiest cell of the grid ``assign_members`` bins ``k``
    heads into: square cells of ``max(ptp) / isqrt(k)`` metres."""
    side = max(np.ptp(hx), np.ptp(hy)) / math.isqrt(hx.size)
    cx, cy = ((hx - hx.min()) / side).astype(int), ((hy - hy.min()) / side).astype(int)
    return np.bincount(cy * (cx.max() + 1) + cx).max()


def _crowded(rng, head_count, member_count, stacked, box):
    """Spread nodes whose first ``stacked`` heads (ids 0..) sit inside one
    ``box``-metre square; the heads are ids ``0 .. head_count - 1``."""
    xs, ys = _layout("random", rng, head_count + member_count)
    corner = rng.uniform(20.0, 180.0, 2)
    xs[:stacked] = corner[0] + rng.uniform(0.0, box, stacked)
    ys[:stacked] = corner[1] + rng.uniform(0.0, box, stacked)
    return xs, ys


class TestAssignMembersCompactCells:
    """Layouts where a padded cell table would be deepest, or a ring row empty."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=64, max_value=400),
        st.integers(min_value=0, max_value=300),
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from([0.0, 1e-3, 1.0]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_crowded_cell_equals_dense_oracle(self, head_count, member_count, share, box, seed):
        rng = np.random.default_rng(seed)
        stacked = round(share * (head_count // 12))
        xs, ys = _crowded(rng, head_count, member_count, stacked, box)
        depth = _grid_depth(xs[:head_count], ys[:head_count])
        assume(9 * depth < head_count)  # the ring search runs
        nodes = nodes_at(xs, ys)
        dead = rng.random(xs.size) >= 0.9
        dead[:head_count] = False
        nodes.energy[dead] = 0.0
        assert_matches_dense(nodes, list(range(head_count)))

    def test_chunk_without_ring_candidates(self):
        # 300 heads on a 20 x 20 lattice of 10 m pitch, less its central 10 x 10
        # block, in 11.2 m cells of up to 4 heads: ring 1 takes 2^18 // 36 = 7281
        # members a chunk. The first 8000 members sit at least 3 cells from every
        # head, so every block of the first chunk is empty and the second mixes
        # empty blocks with the 500 spread members' full ones.
        grid = np.arange(20) * 10.0
        hx, hy = np.repeat(grid, 20), np.tile(grid, 20)
        keep = ~((50.0 <= hx) & (hx <= 140.0) & (50.0 <= hy) & (hy <= 140.0))
        hx, hy = hx[keep], hy[keep]
        assert hx.size == 300 and _grid_depth(hx, hy) == 4
        rng = np.random.default_rng(11)
        mx = np.concatenate((rng.uniform(80.0, 110.0, 8000), rng.uniform(0.0, 190.0, 500)))
        my = np.concatenate((rng.uniform(80.0, 110.0, 8000), rng.uniform(0.0, 190.0, 500)))
        nearest = np.hypot(mx[:8000, None] - hx, my[:8000, None] - hy).min(axis=1)
        assert nearest.min() >= 3 * 190.0 / 17
        assert_matches_dense(nodes_at(np.append(hx, mx), np.append(hy, my)),
                             list(range(hx.size)))

    def test_crowded_memory_stays_bounded(self):
        rng = np.random.default_rng(13)
        xs, ys = _crowded(rng, 1000, 9000, 1000 // 12, 1.0)
        xs, ys = xs / 2.0, ys / 2.0  # the 0-100 m field of test_memory_stays_bounded
        assert 9 * _grid_depth(xs[:1000], ys[:1000]) < 1000  # the ring search runs
        nodes = nodes_at(xs, ys)
        tracemalloc.start()
        try:
            assign_members(nodes, list(range(1000)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_deep_ring_memory_stays_chunk_local(self):
        # 9804 heads on a 100 x 100 lattice of 1 m pitch, less a 14 x 14 hole
        # (43 to 56 m), in 1 m cells. The 2000 members in its middle 2 m are
        # 6.5 to 7.6 sides from every head, so the search reaches ring 7 or 8.
        # Blocks for every cell of that ring would take over 60 MiB.
        grid = np.arange(100.0)
        hx, hy = np.repeat(grid, 100), np.tile(grid, 100)
        keep = ~((43.0 <= hx) & (hx <= 56.0) & (43.0 <= hy) & (hy <= 56.0))
        hx, hy = hx[keep], hy[keep]
        assert hx.size == 9804 and max(np.ptp(hx), np.ptp(hy)) / math.isqrt(hx.size) == 1.0
        rng = np.random.default_rng(17)
        mx, my = rng.uniform(48.5, 50.5, 2000), rng.uniform(48.5, 50.5, 2000)
        nodes = nodes_at(np.append(hx, mx), np.append(hy, my))
        tracemalloc.start()
        try:
            _, heads = assign_members(nodes, np.arange(hx.size))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
        ids = np.flatnonzero((np.abs(hx - 49.5) < 12.0) & (np.abs(hy - 49.5) < 12.0))
        dists = np.hypot(mx[:, None] - hx[ids], my[:, None] - hy[ids])
        assert dists.min() >= 6.5
        assert heads.tolist() == ids[dists.argmin(axis=1)].tolist()  # the nearest are near the hole


def _small_chunk_layout(kind, rng):
    """Coordinates and head count (heads are ids ``0 .. k - 1``) of a layout
    run with a tiny ``_CHUNK``."""
    if kind == "lattice":  # exact distance ties and coincident nodes
        return *_layout("lattice", rng, 300), 100
    if kind == "hole":
        # 84 heads on the 10 m lattice less its 40 m hole, in 10 m cells. The
        # first 150 members sit in the hole's middle cells, whose ring 1 holds
        # no head, so a chunk of them has only empty blocks.
        hx, hy = TestAssignMembersMatchesDense()._holed_lattice(4)
        mx = np.concatenate((rng.uniform(40.0, 50.0, 150), rng.uniform(0.0, 90.0, 150)))
        my = np.concatenate((rng.uniform(40.0, 50.0, 150), rng.uniform(0.0, 90.0, 150)))
        return np.append(hx, mx), np.append(hy, my), hx.size
    if kind == "crowded":
        return *_crowded(rng, 300, 300, 300 // 12, 1.0), 300
    raise AssertionError(kind)


def _strip_layout():
    """3000 nodes, the first 300 of them heads, in a 100 x 20 m strip: the
    heads fill 18 x 4 cells of about 4 heads, so ring 1 gives a member about
    35 candidates."""
    rng = np.random.default_rng(23)
    return rng.uniform(0.0, 100.0, 3000), rng.uniform(0.0, 20.0, 3000)


def _steady_strip_faults():
    """Minor page faults of a third ``assign_members`` call on the strip."""
    nodes, heads = nodes_at(*_strip_layout()), np.arange(300)
    for _ in range(2):
        assign_members(nodes, heads)
    return minor_faults(lambda: assign_members(nodes, heads))


class TestAssignMembersChunks:
    """The ring pass works in chunks of at most ``_CHUNK`` candidates, each
    written into one buffer; no result may depend on a chunk's size or on an
    earlier call, and a steady call takes no page faults on its candidates."""

    @pytest.mark.parametrize("chunk", [1, 64, 512])
    @pytest.mark.parametrize("kind", ["lattice", "hole", "crowded"])
    def test_small_chunks_equal_dense_oracle(self, monkeypatch, kind, chunk):
        # At 1 a chunk holds one member, whose block alone exceeds it; in the
        # hole, such a chunk holds only an empty block. At 64 and 512 a chunk
        # holds one to a few dozen members, and in the hole some chunks mix
        # empty blocks with full ones. Every pass takes many chunks.
        monkeypatch.setattr("crwsnsim.clustering._CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        xs, ys, head_count = _small_chunk_layout(kind, rng)
        assert 9 * _grid_depth(xs[:head_count], ys[:head_count]) < head_count  # rings run
        nodes = nodes_at(xs, ys)
        nodes.energy[rng.random(xs.size) >= 0.9] = 0.0
        nodes.energy[:head_count] = 0.5
        assert_matches_dense(nodes, list(range(head_count)))

    def test_growing_then_shrinking_candidates_equal_dense_oracle(self):
        rng = np.random.default_rng(19)
        for member_count in (200, 3000, 50, 3000, 600):
            nodes = nodes_at(*_layout("random", rng, 100 + member_count))
            assert_matches_dense(nodes, list(range(100)))

    def test_results_do_not_share_memory_with_later_calls(self):
        rng = np.random.default_rng(29)
        first = nodes_at(*_layout("random", rng, 2000))
        members, member_head = assign_members(first, list(range(200)))
        want = members.tolist(), member_head.tolist()
        assign_members(nodes_at(*_layout("random", rng, 3000)), list(range(300)))
        assert (members.tolist(), member_head.tolist()) == want
        members[:], member_head[:] = -1, -1
        again = assign_members(first, list(range(200)))
        assert (again[0].tolist(), again[1].tolist()) == want

    def test_steady_call_faults_in_no_candidate_sized_array(self):
        xs, ys = _strip_layout()
        assert 9 * _grid_depth(xs[:300], ys[:300]) < 300  # the ring search runs
        # no more than ring 1 gathers: (member, head) pairs in adjacent cells
        side = max(np.ptp(xs[:300]), np.ptp(ys[:300])) / math.isqrt(300)
        cx, cy = ((xs - xs[:300].min()) / side).astype(int), ((ys - ys[:300].min()) / side).astype(int)
        cx, cy = cx.clip(0, cx[:300].max()), cy.clip(0, cy[:300].max())
        candidates = np.sum((np.abs(cx[300:, None] - cx[:300]) <= 1)
                            & (np.abs(cy[300:, None] - cy[:300]) <= 1))
        # In a fresh interpreter: glibc raises its mmap threshold to the largest
        # block freed so far, so after a longer history, such as this process's,
        # even six separate candidate arrays can stay in the heap unfaulted.
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
            faults = pool.submit(_steady_strip_faults).result(timeout=120)
        pages = 8 * candidates // resource.getpagesize()  # of one float64 candidate array
        assert faults < pages, f"{faults} minor faults, {pages} pages a candidate array"
