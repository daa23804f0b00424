"""Domain types, scenario configuration, and deterministic node placement."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

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
        raise ValueError(f"p must be in (0, 1] with 1/p finite, got {p}")


@dataclass(eq=False)
class Nodes:
    """Per-sensor state as parallel arrays indexed by node id.

    A node is alive while its ``energy`` is positive. ``last_ch_round``
    records the most recent round (0-based) in which the node served as a
    cluster head, -1 if it never has; it drives the election cooldown.
    """

    x: np.ndarray
    y: np.ndarray
    energy: np.ndarray
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

    @cached_property
    def crossover_distance(self) -> float:
        """Distance (m) at which the free-space and multipath amplifier laws meet."""
        return math.sqrt(self.e_fs / self.e_mp)


def _longest_link(params: EnergyParams, xs, ys) -> tuple[float, bool]:
    """Metres across the box that holds the points (``xs``, ``ys``), which no link
    between them exceeds, and whether ``link_cost`` prices a link that long: one
    of finite metres, with a finite d^4 (a float power, as it takes it) past the
    crossover distance. Both branches grow with d, so then every link is priced."""
    d = math.hypot(*(float(np.max(v)) - float(np.min(v)) for v in (xs, ys)))
    try:
        return d, d < math.inf and (d <= params.crossover_distance or d ** 4 < math.inf)
    except OverflowError:
        return d, False


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one simulation run.

    Each field, and each field of ``energy``, is the config-file key of the
    same name; the fields are in the order a run's CSV header echoes them.
    """

    protocol: str = PROTOCOL_BASELINE
    clustering: str = CLUSTERING_NONUNIFORM
    k: int = 10                       # uniform-mode cluster-head count
    nodes: int = 100                  # sensor count (``Nodes`` holds their state)
    rounds: int = 1500
    p: float = 0.1                    # head-election probability
    field_width: float = 100.0        # metres
    field_height: float = 100.0
    fc_x: float = 50.0                # fusion centre position, metres
    fc_y: float = 50.0
    advanced_fraction: float = 0.0
    advanced_energy_factor: float = 0.0
    energy: EnergyParams = field(default_factory=EnergyParams)
    seed: int = 42                    # RNG seed

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        for name in ("field_width", "field_height"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive, got {value!r}")
        check_probability(self.p)
        if self.rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {self.rounds}")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        if self.clustering not in CLUSTERING_MODES:
            raise ValueError(
                f"clustering must be one of {CLUSTERING_MODES}, got {self.clustering!r}"
            )
        if self.clustering == CLUSTERING_UNIFORM:
            if not (1 <= self.k <= self.nodes):
                raise ValueError(f"k must be in [1, nodes], got {self.k}")
            if self.p * self.nodes < 1.0:
                raise ValueError(
                    f"p * nodes must be >= 1 for uniform clustering, got {self.p * self.nodes}"
                )
        if not (0.0 <= self.advanced_fraction <= 1.0):
            raise ValueError(
                f"advanced_fraction must be in [0, 1], got {self.advanced_fraction}"
            )
        factor = self.advanced_energy_factor
        if not (math.isfinite(factor) and factor >= 0.0):
            raise ValueError(f"advanced_energy_factor must be finite and >= 0, got {factor}")
        total = self.nodes * self.energy.initial_energy * (1.0 + factor)
        if not math.isfinite(total):
            raise ValueError(
                "initial_energy * (1 + advanced_energy_factor) * nodes must be finite, "
                f"got {total}"
            )
        for name in ("fc_x", "fc_y"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        sides = [(("field_width", "fc_x"), self.field_width, self.fc_x),
                 (("field_height", "fc_y"), self.field_height, self.fc_y)]
        span, priceable = _longest_link(self.energy, *([0.0, size, fc] for _, size, fc in sides))
        if not priceable:  # name the wider side's fusion centre if it lies off the field
            names, size, fc = max(sides, key=lambda s: max(0.0, s[1], s[2]) - min(0.0, s[2]))
            raise ValueError(
                f"{names[not 0.0 <= fc <= size]} must keep the field and fusion centre within "
                f"a link length that link_cost can price, got a diagonal of {span!r} m"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def place_nodes(config: ScenarioConfig, rng: np.random.Generator) -> Nodes:
    """Place ``config.nodes`` sensors i.i.d. uniformly over the field.

    The first ``floor(advanced_fraction * nodes)`` node ids are advanced
    nodes with initial energy scaled by ``1 + advanced_energy_factor``.
    Identical (config, generator state) gives identical nodes.
    """
    n = config.nodes
    xs = rng.uniform(0.0, config.field_width, n)
    ys = rng.uniform(0.0, config.field_height, n)
    energy = np.full(n, config.energy.initial_energy)
    energy[: int(config.advanced_fraction * n)] *= 1.0 + config.advanced_energy_factor
    return Nodes(xs, ys, energy, np.full(n, -1))
