import math
from dataclasses import fields

import numpy as np
import pytest

from crwsnsim import (
    EnergyParams,
    Nodes,
    ScenarioConfig,
    place_nodes,
)


def test_single_node_placement():
    config = ScenarioConfig(nodes=1)
    nodes = place_nodes(config, np.random.default_rng(5))
    assert nodes.x.size == 1
    assert nodes.energy[0] == 0.5
    assert 0.0 <= nodes.x[0] <= 100.0
    assert 0.0 <= nodes.y[0] <= 100.0


def test_total_energy_all_normal():
    config = ScenarioConfig(nodes=100, advanced_fraction=0.0)
    nodes = place_nodes(config, np.random.default_rng(5))
    assert math.fsum(nodes.energy) == pytest.approx(50.0, rel=1e-12)


def test_placement_deterministic():
    config = ScenarioConfig(nodes=100)
    first = place_nodes(config, np.random.default_rng(123))
    second = place_nodes(config, np.random.default_rng(123))
    names = [field.name for field in fields(Nodes)]
    assert names == ["x", "y", "energy", "last_ch_round"]  # liveness is energy > 0
    for name in names:
        assert np.array_equal(getattr(first, name), getattr(second, name))


def test_positions_inside_field():
    config = ScenarioConfig(nodes=250, field_width=30.0, field_height=7.5)
    nodes = place_nodes(config, np.random.default_rng(9))
    assert np.all((0.0 <= nodes.x) & (nodes.x <= 30.0))
    assert np.all((0.0 <= nodes.y) & (nodes.y <= 7.5))
    assert nodes.x.shape == nodes.y.shape == nodes.energy.shape == (250,)
    assert np.all(nodes.energy > 0) and np.all(nodes.last_ch_round == -1)


def test_advanced_split_energy_bookkeeping():
    config = ScenarioConfig(
        nodes=100, advanced_fraction=0.25, advanced_energy_factor=1.0
    )
    nodes = place_nodes(config, np.random.default_rng(2))
    advanced, normal = nodes.energy[:25], nodes.energy[25:]
    assert np.all(advanced == 1.0)
    assert np.all(normal == 0.5)
    expected = 75 * 0.5 + 25 * 0.5 * 2.0
    assert math.fsum(nodes.energy) == pytest.approx(expected, rel=1e-12)


class TestConfigValidation:
    def test_invalid_field_dimensions(self):
        with pytest.raises(ValueError, match="field_width"):
            ScenarioConfig(field_width=0.0)
        with pytest.raises(ValueError, match="field_height"):
            ScenarioConfig(field_height=-3.0)

    def test_probability_bounds(self):
        with pytest.raises(ValueError, match=r"^p must be in \(0, 1\]"):
            ScenarioConfig(p=0.0)
        with pytest.raises(ValueError, match=r"^p must be in \(0, 1\]"):
            ScenarioConfig(p=1.5)
        ScenarioConfig(p=1.0)  # boundary is allowed

    def test_uniform_k_bounds(self):
        with pytest.raises(ValueError, match=r"^k must be in \[1, nodes\]"):
            ScenarioConfig(clustering="uniform", k=0)
        with pytest.raises(ValueError, match=r"^k must be in \[1, nodes\]"):
            ScenarioConfig(clustering="uniform", nodes=5, k=6)
        # unused k is not range-checked in nonuniform mode
        ScenarioConfig(clustering="nonuniform", nodes=5, k=6)

    def test_uniform_needs_expected_head(self):
        with pytest.raises(ValueError, match=r"^p \* nodes must be >= 1"):
            ScenarioConfig(clustering="uniform", nodes=5, p=0.1, k=1)

    def test_protocol_and_clustering_names(self):
        with pytest.raises(ValueError, match="protocol"):
            ScenarioConfig(protocol="leach")
        with pytest.raises(ValueError, match="clustering"):
            ScenarioConfig(clustering="fixed")

    def test_seed_non_negative_without_upper_bound(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0"):
            ScenarioConfig(seed=-1)
        ScenarioConfig(seed=0)
        ScenarioConfig(seed=2**70)

    @pytest.mark.parametrize("x, y", [(math.nan, 50.0), (50.0, math.inf), (-math.inf, 0.0)])
    def test_fusion_centre_finite(self, x, y):
        key = "fc_y" if math.isfinite(x) else "fc_x"
        with pytest.raises(ValueError, match=rf"^{key} must be finite"):
            ScenarioConfig(fc_x=x, fc_y=y)

    # The box that holds the field and the fusion centre spans the longest link a
    # placed run can meet. The error names the fusion centre's coordinate on the
    # box's wider side if it lies off the field there, else the field's size.
    @pytest.mark.parametrize("changes, key", [
        ({"fc_x": 2e77}, "fc_x"), ({"fc_y": -2e77}, "fc_y"),
        ({"field_width": 2e77}, "field_width"), ({"field_height": 1.7e308}, "field_height"),
        ({"field_width": 1e77, "fc_y": 9e76}, "field_width"),
    ], ids=["fusion-centre-east", "fusion-centre-south", "wide-field", "tall-field",
            "wide-field-fusion-centre-north"])
    def test_field_and_fusion_centre_span_a_priceable_link(self, changes, key):
        with pytest.raises(ValueError, match=rf"^{key} must keep the field and fusion centre "
                                             r"within a link length that link_cost can price"):
            ScenarioConfig(**changes)
        ScenarioConfig(field_width=1.1e77)  # its d^4 is finite
        # a crossover of inf metres: every finite link takes the d^2 law
        ScenarioConfig(field_width=1e200, energy=EnergyParams(e_fs=1e3, e_mp=5e-324))

    @pytest.mark.parametrize("factor", [math.inf, math.nan, -0.5])
    def test_advanced_energy_factor_finite_non_negative(self, factor):
        with pytest.raises(ValueError, match="advanced_energy_factor"):
            ScenarioConfig(advanced_energy_factor=factor)

    def test_total_initial_energy_finite(self):
        # each battery is finite, but the field's total is not
        with pytest.raises(ValueError, match="initial_energy"):
            ScenarioConfig(nodes=2, energy=EnergyParams(initial_energy=1e308))
        with pytest.raises(ValueError, match="initial_energy"):
            ScenarioConfig(nodes=1, advanced_fraction=1.0, advanced_energy_factor=1.0,
                           energy=EnergyParams(initial_energy=1e308))
        ScenarioConfig(nodes=1, energy=EnergyParams(initial_energy=1e308))

    def test_positive_energy_constants(self):
        with pytest.raises(ValueError, match="e_fs"):
            EnergyParams(e_fs=0.0)
        with pytest.raises(ValueError, match="e_mp"):
            EnergyParams(e_mp=-1e-15)
