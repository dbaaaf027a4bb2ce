"""Fig. 12 — bidirectional channel counts: dFBFLY vs sFBFLY.

Removing intra-cluster channels saves 50% of the memory-network channels at
4 GPUs and 43% at 8 GPUs, which is what lets sFBFLY scale to larger systems
on the HMC's limited port count.
"""

from __future__ import annotations

from typing import Sequence

from ..config import SystemConfig
from ..network.topologies import build_topology
from .common import ExperimentResult


def run(gpu_counts: Sequence[int] = (2, 4, 8, 16)) -> ExperimentResult:
    result = ExperimentResult(
        "Fig. 12",
        "Bidirectional memory-network channels, dFBFLY vs sFBFLY",
        paper_note="sFBFLY saves 50% at 4 GPUs and 43% at 8 GPUs",
        experiment_id="fig12",
    )
    for g in gpu_counts:
        cfg = SystemConfig(num_gpus=g)
        d = build_topology("dfbfly", cfg)
        s = build_topology("sfbfly", cfg)
        dc, sc = d.count_network_links(), s.count_network_links()
        result.add(
            gpus=g,
            hmcs=d.num_routers,
            dfbfly_channels=dc,
            sfbfly_channels=sc,
            saving_pct=round(100 * (dc - sc) / dc, 1),
            max_hmc_degree_dfbfly=max(d.router_degree(r) for r in range(d.num_routers)),
            max_hmc_degree_sfbfly=max(s.router_degree(r) for r in range(s.num_routers)),
        )
    result.note(
        "HMC routers have 8 channels; degrees above 8 mark configurations a "
        "real HMC could not build - dFBFLY exceeds the budget before sFBFLY"
    )
    return result
