"""Radio energy arithmetic: two-branch link cost and reception.

The link cost charges the transmit electronics plus aggregation per bit and
an amplifier term that switches from a d^2 law to a d^4 law at the crossover
distance, the unique point where the two branches agree.
"""

from __future__ import annotations

import math

import numpy as np

from .model import EnergyParams


def link_cost(params: EnergyParams, m_bits: int, d: float | np.ndarray) -> float | np.ndarray:
    """Energy (J) to send ``m_bits`` over distance ``d`` metres.

    Free-space (d^2) amplifier up to ``params.crossover_distance``, multipath
    (d^4) beyond it. Computed per bit and scaled, so the cost is exactly
    linear in ``m_bits``. A float gives a float and an array (0-d too) an
    array of costs, each bit for bit the value for that distance alone.
    """
    if m_bits < 1:
        raise ValueError(f"m_bits must be >= 1, got {m_bits}")
    dist = np.asarray(d, dtype=float)
    bad = dist[~((dist >= 0.0) & (dist < math.inf))]
    if bad.size:
        raise ValueError(f"d must be a finite non-negative distance, got {float(bad[0])!r}")
    per_bit = params.e_tx + params.e_aggregation
    cost = np.asarray(per_bit + params.e_fs * dist * dist)  # a 0-d result stays an array
    far = dist > params.crossover_distance
    if far.any():  # Python's float ** 4: numpy's power can differ in the last bit
        try:
            quartic = np.array([v ** 4 for v in dist[far].tolist()])
        except OverflowError:  # name the distance, not the errno tuple
            raise OverflowError(f"d^4 overflows for a {float(dist.max())!r} m link") from None
        cost[far] = per_bit + params.e_mp * quartic
    cost *= m_bits
    return cost if isinstance(d, np.ndarray) else float(cost)


def rx_energy(params: EnergyParams, m_bits: int) -> float:
    """Reception energy (J) for ``m_bits``: receive electronics only."""
    if m_bits < 1:
        raise ValueError(f"m_bits must be >= 1, got {m_bits}")
    return params.e_rx * m_bits
