"""Domain types, scenario configuration, and deterministic node placement."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

PROTOCOL_BASELINE = "baseline"
PROTOCOL_PROPOSED = "proposed"
PROTOCOLS = (PROTOCOL_BASELINE, PROTOCOL_PROPOSED)

CLUSTERING_UNIFORM = "uniform"
CLUSTERING_NONUNIFORM = "nonuniform"
CLUSTERING_MODES = (CLUSTERING_UNIFORM, CLUSTERING_NONUNIFORM)


def check_probability(p: float) -> None:
    """Reject a head-election probability whose epoch, ``round(1/p)``, is undefined."""
    if not (0.0 < p <= 1.0 and math.isfinite(1.0 / p)):
        raise ValueError(f"ch_probability must be in (0, 1] with 1/p finite, got {p}")


@dataclass(frozen=True)
class Position:
    """A point in the deployment field, metres."""

    x: float
    y: float


@dataclass(eq=False)
class Nodes:
    """Per-sensor state as parallel arrays indexed by node id.

    ``last_ch_round`` records the most recent round (0-based) in which the
    node served as a cluster head, -1 if it never has; it drives the election
    cooldown.
    """

    x: np.ndarray
    y: np.ndarray
    energy: np.ndarray
    alive: np.ndarray
    last_ch_round: np.ndarray


@dataclass(frozen=True)
class EnergyParams:
    """Radio energy constants. Joules per bit unless noted otherwise."""

    initial_energy: float = 0.5       # J per normal node
    e_tx: float = 50e-9               # transmit electronics
    e_aggregation: float = 5e-9       # data aggregation
    e_rx: float = 50e-9               # receive electronics
    e_fs: float = 10e-12              # free-space amplifier, J/bit/m^2
    e_mp: float = 0.0013e-12          # multipath amplifier, J/bit/m^4
    e_elec: float = 50e-9             # electronics constant of the linear model
    e_prop: float = 10e-12            # propagation constant of the linear model, J/m
    path_loss: float = 0.3            # path-loss factor of the linear model

    def __post_init__(self) -> None:
        for item in fields(self):
            value = getattr(self, item.name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{item.name} must be a positive finite number, got {value!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one simulation run."""

    n_nodes: int = 100
    field_width: float = 100.0
    field_height: float = 100.0
    fc_position: Position = Position(50.0, 50.0)
    ch_probability: float = 0.1
    rounds: int = 1500
    protocol: str = PROTOCOL_BASELINE
    clustering: str = CLUSTERING_NONUNIFORM
    cluster_count: int = 10
    advanced_fraction: float = 0.0
    advanced_energy_factor: float = 0.0
    rng_seed: int = 42
    energy: EnergyParams = field(default_factory=EnergyParams)

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        for name in ("field_width", "field_height"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive, got {value!r}")
        check_probability(self.ch_probability)
        if self.rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {self.rounds}")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        if self.clustering not in CLUSTERING_MODES:
            raise ValueError(
                f"clustering must be one of {CLUSTERING_MODES}, got {self.clustering!r}"
            )
        if self.clustering == CLUSTERING_UNIFORM:
            if not (1 <= self.cluster_count <= self.n_nodes):
                raise ValueError(
                    f"cluster_count must be in [1, n_nodes], got {self.cluster_count}"
                )
            if self.ch_probability * self.n_nodes < 1.0:
                raise ValueError(
                    "ch_probability * n_nodes must be >= 1 for uniform clustering, "
                    f"got {self.ch_probability * self.n_nodes}"
                )
        if not (0.0 <= self.advanced_fraction <= 1.0):
            raise ValueError(
                f"advanced_fraction must be in [0, 1], got {self.advanced_fraction}"
            )
        factor = self.advanced_energy_factor
        if not (math.isfinite(factor) and factor >= 0.0):
            raise ValueError(f"advanced_energy_factor must be finite and >= 0, got {factor}")
        total = self.n_nodes * self.energy.initial_energy * (1.0 + factor)
        if not math.isfinite(total):
            raise ValueError(
                "initial_energy * (1 + advanced_energy_factor) * n_nodes must be finite, "
                f"got {total}"
            )
        for axis in ("x", "y"):
            value = getattr(self.fc_position, axis)
            if not math.isfinite(value):
                raise ValueError(f"fc_position.{axis} must be finite, got {value!r}")
        diagonal = math.hypot(self.field_width, self.field_height)
        if not math.isfinite(diagonal):
            raise ValueError(
                f"field_width and field_height must span a finite diagonal, got {diagonal}"
            )
        fc = self.fc_position
        dx = max(abs(fc.x), abs(fc.x - self.field_width))
        dy = max(abs(fc.y), abs(fc.y - self.field_height))
        far = math.hypot(dx, dy)
        if not math.isfinite(far):
            raise ValueError(
                f"fc_position.{'x' if dx >= dy else 'y'} must leave the farthest field "
                f"corner a finite distance from the fusion centre, got {far}"
            )
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


def place_nodes(config: ScenarioConfig, rng: np.random.Generator) -> Nodes:
    """Place ``n_nodes`` sensors i.i.d. uniformly over the field.

    The first ``floor(advanced_fraction * n_nodes)`` node ids are advanced
    nodes with initial energy scaled by ``1 + advanced_energy_factor``.
    Identical (config, generator state) gives identical nodes.
    """
    n = config.n_nodes
    xs = rng.uniform(0.0, config.field_width, n)
    ys = rng.uniform(0.0, config.field_height, n)
    energy = np.full(n, config.energy.initial_energy)
    energy[: int(config.advanced_fraction * n)] *= 1.0 + config.advanced_energy_factor
    return Nodes(xs, ys, energy, np.ones(n, dtype=bool), np.full(n, -1))
