"""Radio energy arithmetic: two-branch link cost and reception.

The link cost charges the transmit electronics plus aggregation per bit and
an amplifier term that switches from a d^2 law to a d^4 law at the crossover
distance, the unique point where the two branches agree.
"""

from __future__ import annotations

import math

import numpy as np

from .model import EnergyParams


def crossover_distance(params: EnergyParams) -> float:
    """Distance (m) at which the free-space and multipath branches meet."""
    return params.crossover_distance


def link_cost(params: EnergyParams, m_bits: int, d: float | np.ndarray) -> float | np.ndarray:
    """Energy (J) to send ``m_bits`` over distance ``d`` metres.

    Free-space (d^2) amplifier up to the crossover distance, multipath (d^4)
    beyond it. Computed per bit and scaled, so the cost is exactly linear
    in ``m_bits``. An array of distances gives an array of costs, each
    bit for bit the value for that distance alone.
    """
    if m_bits < 1:
        raise ValueError(f"m_bits must be >= 1, got {m_bits}")
    per_bit = params.e_tx + params.e_aggregation
    if isinstance(d, np.ndarray):
        bad = d[~((d >= 0.0) & (d < math.inf))]
        if bad.size:
            raise ValueError(f"d must be a finite non-negative distance, got {float(bad[0])!r}")
        cost, far = per_bit + params.e_fs * d * d, d > params.crossover_distance
        if far.any():  # Python's float ** 4: numpy's power can differ in the last bit
            cost[far] = per_bit + params.e_mp * np.array([v ** 4 for v in d[far].tolist()])
        return m_bits * cost
    if not math.isfinite(d) or d < 0.0:
        raise ValueError(f"d must be a finite non-negative distance, got {d!r}")
    if d <= params.crossover_distance:
        per_bit += params.e_fs * d * d
    else:
        per_bit += params.e_mp * d ** 4
    return m_bits * per_bit


def rx_energy(params: EnergyParams, m_bits: int) -> float:
    """Reception energy (J) for ``m_bits``: receive electronics only."""
    if m_bits < 1:
        raise ValueError(f"m_bits must be >= 1, got {m_bits}")
    return params.e_rx * m_bits
