"""Extension — memory networks vs an NVLink-style processor-centric network.

Section II-B of the paper positions NVLink (Fig. 1(b)) as the
contemporaneous alternative: high-bandwidth point-to-point processor links,
"but the topologies are limited to processor-centric network (PCN)".  This
experiment quantifies that contrast on our substrate: the PCN removes the
PCIe bottleneck, yet remote memory still traverses the owning GPU and the
host copy remains, so the memory-network organizations (GMN kernel time,
UMN overall) stay ahead.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import SystemConfig
from ..exec import SweepExecutor
from . import claims
from .common import ExperimentResult, run_jobs

ARCHS = ("PCIe", "NVLink", "GMN", "UMN")
DEFAULT_WORKLOADS = ("BP", "BFS", "KMN", "SCAN", "CP")


def run(
    scale: float = 0.25,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    cfg: Optional[SystemConfig] = None,
    executor: Optional[SweepExecutor] = None,
) -> ExperimentResult:
    cfg = cfg or SystemConfig()
    executor = executor or SweepExecutor()
    result = ExperimentResult(
        "Ext: PCN",
        "Memory networks vs NVLink-style processor-centric network "
        "(extension; Section II-B contrast)",
        paper_note=(
            "NVLink provides high processor-to-processor bandwidth but stays "
            "processor-centric: remote memory still crosses the remote GPU"
        ),
        experiment_id="ext-pcn",
    )
    jobs = [
        executor.job(arch, name, cfg, scale=scale)
        for name in workloads
        for arch in ARCHS
    ]
    for job, r in zip(jobs, run_jobs(jobs, executor, result)):
        if r is None:
            continue  # failed point (keep-going); reported on result
        result.add(
            workload=job.workload.name,
            arch=job.spec.name,
            kernel_us=r.kernel_ps / 1e6,
            memcpy_us=r.memcpy_ps / 1e6,
            total_us=(r.kernel_ps + r.memcpy_ps) / 1e6,
        )

    if not result.complete:
        return result  # summary notes need every (workload, arch) point

    def geo(arch: str) -> float:
        return claims.speedup(result.rows, arch)

    result.note(
        f"speedup over PCIe (geomean): NVLink {geo('NVLink'):.1f}x, "
        f"GMN {geo('GMN'):.1f}x, UMN {geo('UMN'):.1f}x"
    )
    result.note(
        "the PCN closes much of the PCIe gap but the unified memory network "
        "stays ahead by removing both the copy and the remote-GPU traversal"
    )
    return result
