import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crwsnsim import EnergyParams, crossover_distance, link_cost, rx_energy

PARAMS = EnergyParams()


class TestCrossoverDistance:
    def test_default_constants(self):
        # sqrt(10e-12 / 0.0013e-12) = 87.70580193070292
        assert crossover_distance(PARAMS) == pytest.approx(
            math.sqrt(10e-12 / 0.0013e-12), rel=1e-12
        )

    def test_equal_constants(self):
        assert crossover_distance(EnergyParams(e_fs=1e-12, e_mp=1e-12)) == 1.0

    def test_perfect_square_ratio(self):
        assert crossover_distance(EnergyParams(e_fs=4e-12, e_mp=1e-12)) == 2.0


class TestLinkCost:
    def test_zero_distance_kills_amplifier(self):
        assert link_cost(PARAMS, 10, 0.0) == pytest.approx(5.5e-7, rel=1e-12)

    def test_multipath_branch(self):
        # 55e-9 + 0.0013e-12 * 100^4
        assert link_cost(PARAMS, 1, 100.0) == pytest.approx(1.85e-7, rel=1e-12)

    def test_branches_agree_at_crossover(self):
        d_o = crossover_distance(PARAMS)
        expected = 55e-9 + 10e-12 * (10e-12 / 0.0013e-12)  # 1.319230769230769e-07
        assert link_cost(PARAMS, 1, d_o) == pytest.approx(expected, rel=1e-12)

    def test_continuity_at_crossover(self):
        d_o = crossover_distance(PARAMS)
        below = link_cost(PARAMS, 1, d_o - 1e-6)
        above = link_cost(PARAMS, 1, d_o + 1e-6)
        assert below == pytest.approx(above, rel=1e-6)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            link_cost(PARAMS, 0, 10.0)
        with pytest.raises(ValueError):
            link_cost(PARAMS, 1, float("nan"))
        with pytest.raises(ValueError):
            link_cost(PARAMS, 1, float("inf"))
        with pytest.raises(ValueError):
            link_cost(PARAMS, 1, -5.0)

    @given(
        st.floats(min_value=0.0, max_value=500.0),
        st.floats(min_value=0.01, max_value=500.0),
        st.integers(min_value=1, max_value=1000),
    )
    def test_strictly_increasing_in_distance(self, d1, gap, m):
        assert link_cost(PARAMS, m, d1 + gap) > link_cost(PARAMS, m, d1)

    @given(
        st.floats(min_value=0.0, max_value=500.0),
        st.integers(min_value=1, max_value=1000),
        st.integers(min_value=1, max_value=1000),
    )
    def test_strictly_increasing_in_bits(self, d, m1, extra):
        assert link_cost(PARAMS, m1 + extra, d) > link_cost(PARAMS, m1, d)

    @given(
        st.floats(min_value=0.0, max_value=500.0),
        st.integers(min_value=1, max_value=10000),
    )
    def test_exactly_linear_in_bits(self, d, m):
        assert link_cost(PARAMS, m, d) == m * link_cost(PARAMS, 1, d)

    @given(st.floats(min_value=0.1, max_value=500.0))
    def test_amplifier_curves_cross_at_crossover(self, d):
        # The two amplifier laws intersect exactly at the crossover distance:
        # the d^4 curve sits below the d^2 curve before it and above after it.
        d_o = crossover_distance(PARAMS)
        free_space = PARAMS.e_fs * d * d
        multipath = PARAMS.e_mp * d**4
        if d < d_o * (1.0 - 1e-9):
            assert multipath < free_space
        elif d > d_o * (1.0 + 1e-9):
            assert multipath > free_space


class TestRxEnergy:
    def test_single_bit(self):
        assert rx_energy(PARAMS, 1) == pytest.approx(5.0e-8, rel=1e-12)

    def test_linear_in_bits(self):
        assert rx_energy(PARAMS, 10) == pytest.approx(5.0e-7, rel=1e-12)

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            rx_energy(PARAMS, 0)
