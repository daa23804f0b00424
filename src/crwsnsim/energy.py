"""Radio energy arithmetic: two-branch link cost and reception.

The link cost charges the transmit electronics plus aggregation per bit and
an amplifier term that switches from a d^2 law to a d^4 law at the crossover
distance, the unique point where the two branches agree.
"""

from __future__ import annotations

import math

from .model import EnergyParams


def crossover_distance(params: EnergyParams) -> float:
    """Distance (m) at which the free-space and multipath branches meet."""
    return math.sqrt(params.e_fs / params.e_mp)


def link_cost(params: EnergyParams, m_bits: int, d: float) -> float:
    """Energy (J) to send ``m_bits`` over distance ``d`` metres.

    Free-space (d^2) amplifier up to the crossover distance, multipath (d^4)
    beyond it. Computed per bit and scaled, so the cost is exactly linear
    in ``m_bits``.
    """
    if m_bits < 1:
        raise ValueError(f"m_bits must be >= 1, got {m_bits}")
    if not math.isfinite(d) or d < 0.0:
        raise ValueError(f"d must be a finite non-negative distance, got {d!r}")
    per_bit = params.e_tx + params.e_aggregation
    if d <= crossover_distance(params):
        per_bit += params.e_fs * d * d
    else:
        per_bit += params.e_mp * d ** 4
    return m_bits * per_bit


def rx_energy(params: EnergyParams, m_bits: int) -> float:
    """Reception energy (J) for ``m_bits``: receive electronics only."""
    if m_bits < 1:
        raise ValueError(f"m_bits must be >= 1, got {m_bits}")
    return params.e_rx * m_bits
