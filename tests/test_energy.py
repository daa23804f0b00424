import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crwsnsim import EnergyParams, link_cost

from helpers import scalar_link_cost

PARAMS = EnergyParams()


class TestCrossoverDistance:
    def test_default_constants(self):
        # sqrt(10e-12 / 0.0013e-12) = 87.70580193070292
        assert PARAMS.crossover_distance == pytest.approx(
            math.sqrt(10e-12 / 0.0013e-12), rel=1e-12
        )

    def test_equal_constants(self):
        assert EnergyParams(e_fs=1e-12, e_mp=1e-12).crossover_distance == 1.0

    def test_perfect_square_ratio(self):
        assert EnergyParams(e_fs=4e-12, e_mp=1e-12).crossover_distance == 2.0


class TestLinkCost:
    def test_zero_distance_kills_amplifier(self):
        assert 10 * link_cost(PARAMS, 0.0) == pytest.approx(5.5e-7, rel=1e-12)

    def test_multipath_branch(self):
        # 55e-9 + 0.0013e-12 * 100^4
        assert link_cost(PARAMS, 100.0) == pytest.approx(1.85e-7, rel=1e-12)

    def test_branches_agree_at_crossover(self):
        d_o = PARAMS.crossover_distance
        expected = 55e-9 + 10e-12 * (10e-12 / 0.0013e-12)  # 1.319230769230769e-07
        assert link_cost(PARAMS, d_o) == pytest.approx(expected, rel=1e-12)

    def test_continuity_at_crossover(self):
        d_o = PARAMS.crossover_distance
        below = link_cost(PARAMS, d_o - 1e-6)
        above = link_cost(PARAMS, d_o + 1e-6)
        assert below == pytest.approx(above, rel=1e-6)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            link_cost(PARAMS, float("nan"))
        with pytest.raises(ValueError):
            link_cost(PARAMS, float("inf"))
        with pytest.raises(ValueError):
            link_cost(PARAMS, -5.0)

    @given(
        st.floats(min_value=0.0, max_value=500.0),
        st.floats(min_value=0.01, max_value=500.0),
        st.integers(min_value=1, max_value=1000),
    )
    def test_strictly_increasing_in_distance(self, d1, gap, m):
        assert m * link_cost(PARAMS, d1 + gap) > m * link_cost(PARAMS, d1)

    @given(st.floats(min_value=0.1, max_value=500.0))
    def test_amplifier_curves_cross_at_crossover(self, d):
        # The two amplifier laws intersect exactly at the crossover distance:
        # the d^4 curve sits below the d^2 curve before it and above after it.
        d_o = PARAMS.crossover_distance
        free_space = PARAMS.e_fs * d * d
        multipath = PARAMS.e_mp * d**4
        if d < d_o * (1.0 - 1e-9):
            assert multipath < free_space
        elif d > d_o * (1.0 + 1e-9):
            assert multipath > free_space


class TestCrossoverBranch:
    # At this crossover (99.99999999999999 m) the two branch formulas differ
    # in the last bit, so the branch taken shows in the cost.
    PARAMS = EnergyParams(e_fs=1e-11, e_mp=1e-15)

    def test_cached_crossover_matches_the_formula(self):
        assert self.PARAMS.crossover_distance == math.sqrt(1e-11 / 1e-15)

    @pytest.mark.parametrize("as_array", [False, True])
    def test_exact_crossover_takes_free_space_branch(self, as_array):
        p, d_o = self.PARAMS, self.PARAMS.crossover_distance
        free_space = (p.e_tx + p.e_aggregation) + p.e_fs * d_o * d_o
        multipath = (p.e_tx + p.e_aggregation) + p.e_mp * d_o ** 4
        assert free_space != multipath
        cost = link_cost(p, np.array([d_o]))[0] if as_array else link_cost(p, d_o)
        assert cost == free_space


class TestArrayLinkCost:
    """An array of distances gives, entry by entry, the scalar oracle's cost
    bit for bit."""

    @pytest.mark.parametrize("m_bits", [1, 7])
    @pytest.mark.parametrize("params", [PARAMS, EnergyParams(e_fs=1e-11, e_mp=1e-15)])
    def test_bitwise_equal_to_scalar(self, params, m_bits):
        rng = np.random.default_rng(m_bits)
        d = np.concatenate((rng.uniform(0.0, 400.0, 200_000),
                            [0.0, -0.0, params.crossover_distance]))
        got = m_bits * link_cost(params, d)
        want = np.array([scalar_link_cost(params, m_bits, v) for v in d.tolist()])
        assert got.dtype == np.float64 and got.shape == d.shape
        assert got.tobytes() == want.tobytes()

    def test_float_gives_float(self):
        for d in (0.0, 50.0, 100.0):
            cost = 3 * link_cost(PARAMS, d)
            assert type(cost) is float and cost == scalar_link_cost(PARAMS, 3, d)

    @pytest.mark.parametrize("d", [50.0, 100.0])  # free space, multipath
    def test_zero_dimensional_array(self, d):
        cost = link_cost(PARAMS, np.array(d))
        assert isinstance(cost, np.ndarray) and cost.shape == ()
        assert float(cost) == scalar_link_cost(PARAMS, 1, d)

    def test_empty_array(self):
        assert link_cost(PARAMS, np.array([])).size == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -5.0])
    def test_bad_distance_raises_the_scalar_error(self, bad):
        with pytest.raises(ValueError) as scalar:
            scalar_link_cost(PARAMS, 1, bad)
        for d in (bad, np.array([10.0, bad, 20.0])):
            with pytest.raises(ValueError) as error:
                link_cost(PARAMS, d)
            assert str(error.value) == str(scalar.value)

