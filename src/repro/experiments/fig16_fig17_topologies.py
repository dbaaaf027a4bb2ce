"""Figs. 16 & 17 — sliced topology comparison: performance and energy.

sMESH / sTORUS / their doubled-channel -2x variants / sFBFLY on the GPU
memory network.  The paper finds sFBFLY best or comparable in performance
(Fig. 16) with the lowest network energy (Fig. 17): up to 50.7% less than
sMESH on BP, 20.3% on average.  Energy uses the 2.0 / 1.5 pJ/bit
active/idle model over the kernel-execution window.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..config import SystemConfig
from ..exec import SweepExecutor
from ..system.configs import get_spec
from ..system.metrics import geometric_mean
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
    )
    jobs = [
        executor.job(get_spec("GMN").with_(topology=topology), name, cfg, scale=scale)
        for name in workloads
        for topology in TOPOLOGIES
    ]
    energies: Dict[str, Dict[str, float]] = {t: {} for t in TOPOLOGIES}
    runtimes: Dict[str, Dict[str, int]] = {t: {} for t in TOPOLOGIES}
    for job, r in zip(jobs, run_jobs(jobs, executor, result)):
        if r is None:
            continue  # failed point (keep-going); reported on result
        name, topology = job.workload.name, job.spec.topology
        energies[topology][name] = r.energy.total_uj
        runtimes[topology][name] = r.kernel_ps
        result.add(
            workload=name,
            topology=topology,
            kernel_us=r.kernel_ps / 1e6,
            avg_hops=round(r.avg_hops, 2),
            energy_uj=r.energy.total_uj,
            active_uj=r.energy.active_pj / 1e6,
        )

    if not result.complete:
        return result  # summary notes need every (workload, topology) point

    perf_vs_mesh = geometric_mean(
        [runtimes["smesh"][w] / runtimes["sfbfly"][w] for w in workloads]
    )
    energy_savings = [
        100 * (1 - energies["sfbfly"][w] / energies["smesh"][w]) for w in workloads
    ]
    result.note(f"sFBFLY speedup over sMESH (geomean): {perf_vs_mesh:.2f}x")
    result.note(
        f"sFBFLY energy vs sMESH: max saving {max(energy_savings):.1f}%, "
        f"mean {sum(energy_savings) / len(energy_savings):.1f}% "
        "(paper: 50.7% max on BP, 20.3% avg)"
    )
    return result
