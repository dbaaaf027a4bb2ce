"""Interconnect energy model (Section VI-A, parameters from [5]).

Energy per bit: 2.0 pJ for transmitted ("real") bits, 1.5 pJ for idle
bit-slots.  A channel's idle bit-slots over a window are its capacity in
bits minus what it actually carried, so adding channels raises power (more
idle capacity) while shortening runtime lowers energy — the trade-off
Fig. 17 explores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from ..config import EnergyConfig
from ..network.channel import Channel


@dataclass(frozen=True)
class EnergyBreakdown:
    active_pj: float
    idle_pj: float

    @property
    def total_pj(self) -> float:
        return self.active_pj + self.idle_pj

    @property
    def total_uj(self) -> float:
        return self.total_pj / 1e6

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            self.active_pj + other.active_pj, self.idle_pj + other.idle_pj
        )


def network_energy(
    carried: Iterable[Tuple[Channel, float]],
    elapsed_ps: int,
    cfg: EnergyConfig = EnergyConfig(),
) -> EnergyBreakdown:
    """Total energy over an ``elapsed_ps`` window of ``(channel, bytes
    carried)`` pairs: the channels' own byte counters on the packet tier,
    predicted per-channel loads on the analytic tier."""
    active = 0.0
    idle = 0.0
    for ch, num_bytes in carried:
        active_bits = num_bytes * 8
        active += active_bits * cfg.active_pj_per_bit
        capacity_bits = ch.bytes_per_ps * elapsed_ps * 8
        idle += max(0.0, capacity_bits - active_bits) * cfg.idle_pj_per_bit
    return EnergyBreakdown(active_pj=active, idle_pj=idle)
