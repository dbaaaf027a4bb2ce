"""Figs. 16 & 17 — sliced topology comparison: performance and energy.

sMESH / sTORUS / their doubled-channel -2x variants / sFBFLY on the GPU
memory network.  The paper finds sFBFLY best or comparable in performance
(Fig. 16) with the lowest network energy (Fig. 17): up to 50.7% less than
sMESH on BP, 20.3% on average.  Energy uses the 2.0 / 1.5 pJ/bit
active/idle model over the kernel-execution window.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import SystemConfig
from ..exec import SweepExecutor
from ..system.configs import get_spec
from . import claims
from .common import ExperimentResult, run_jobs

TOPOLOGIES = ("smesh", "storus", "smesh-2x", "storus-2x", "sfbfly")
DEFAULT_WORKLOADS = ("BP", "BFS", "KMN", "SCAN", "SRAD", "STO")


def run(
    scale: float = 0.25,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    cfg: Optional[SystemConfig] = None,
    executor: Optional[SweepExecutor] = None,
) -> ExperimentResult:
    cfg = cfg or SystemConfig()
    executor = executor or SweepExecutor()
    result = ExperimentResult(
        "Fig. 16 / Fig. 17",
        "Sliced topologies on the GMN: kernel runtime and network energy",
        paper_note=(
            "sFBFLY best or comparable performance; lowest energy (up to "
            "50.7% less than sMESH for BP, 20.3% avg)"
        ),
        experiment_id="fig16",  # its claims include Fig. 17's
    )
    jobs = [
        executor.job(get_spec("GMN").with_(topology=topology), name, cfg, scale=scale)
        for name in workloads
        for topology in TOPOLOGIES
    ]
    for job, r in zip(jobs, run_jobs(jobs, executor, result)):
        if r is None:
            continue  # failed point (keep-going); reported on result
        result.add(
            workload=job.workload.name,
            topology=job.spec.topology,
            kernel_us=r.kernel_ps / 1e6,
            avg_hops=round(r.avg_hops, 2),
            energy_uj=r.energy.total_uj,
            active_uj=r.energy.active_pj / 1e6,
        )

    if not result.complete:
        return result  # summary notes need every (workload, topology) point

    perf_vs_mesh = claims.measure("fig16.sfbfly-speedup", result.rows)
    max_saving = claims.measure("fig17.energy-saving-max", result.rows)
    mean_saving = claims.measure("fig17.energy-saving-mean", result.rows)
    result.note(f"sFBFLY speedup over sMESH (geomean): {perf_vs_mesh:.2f}x")
    result.note(
        f"sFBFLY energy vs sMESH: max saving {max_saving:.1f}%, "
        f"mean {mean_saving:.1f}% "
        "(paper: 50.7% max on BP, 20.3% avg)"
    )
    return result
