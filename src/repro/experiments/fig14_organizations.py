"""Fig. 14 — runtime breakdown across the Table III architectures.

For every Table II workload, run all seven architectures and report the
kernel / memcpy / host breakdown.  The paper's headline claims:

- UMN is fastest everywhere (8.5x lower total runtime than PCIe overall);
- GMN cuts kernel time up to 8.8x (BP) and 3.5x on average vs PCIe;
- CMN / CMN-ZC cut total runtime 1.8x / 2.2x vs PCIe;
- GMN-ZC equals PCIe-ZC (the GPU network is never touched);
- for 3DFD, BP, SCAN memcpy exceeds kernel time, so zero-copy wins there.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import SystemConfig
from ..exec import SweepExecutor
from ..system.configs import TABLE_III
from ..workloads.suite import WORKLOAD_NAMES
from . import claims
from .common import ExperimentResult, run_jobs

ARCHS = list(TABLE_III)


def run(
    scale: float = 0.25,
    workloads: Optional[Sequence[str]] = None,
    cfg: Optional[SystemConfig] = None,
    executor: Optional[SweepExecutor] = None,
) -> ExperimentResult:
    cfg = cfg or SystemConfig()
    executor = executor or SweepExecutor()
    workloads = list(workloads or WORKLOAD_NAMES)
    result = ExperimentResult(
        "Fig. 14",
        "Runtime breakdown per multi-GPU architecture",
        paper_note=(
            "UMN fastest (8.5x vs PCIe overall); GMN kernel up to 8.8x (BP), "
            "3.5x avg; CMN/CMN-ZC 1.8x/2.2x; GMN-ZC == PCIe-ZC"
        ),
        experiment_id="fig14",
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
            # Fig. 14 reports kernel + memcpy; host time is Fig. 18's
            # metric and is shown here for reference only.
            total_us=(r.kernel_ps + r.memcpy_ps) / 1e6,
            host_us=r.host_ps / 1e6,
        )

    if not result.complete:
        # Summary speedups need every (workload, arch) point; with holes
        # the per-point rows above are all that can be reported honestly.
        return result

    def value(claim_id: str) -> float:
        return claims.measure(claim_id, result.rows)

    result.note(f"UMN total-runtime speedup over PCIe (geomean): {value('fig14.umn-speedup'):.1f}x (paper: 8.5x)")
    result.note(f"CMN: {value('fig14.cmn-speedup'):.1f}x, CMN-ZC: {value('fig14.cmn-zc-speedup'):.1f}x (paper: 1.8x / 2.2x)")
    result.note(
        f"GMN kernel speedup vs PCIe: max {value('fig14.gmn-kernel-max'):.1f}x, "
        f"geomean {value('fig14.gmn-kernel-geomean'):.1f}x (paper: 8.8x max, 3.5x avg)"
    )
    if "BP" in workloads:
        bp = claims.memcpy_over_kernel(result.rows, "PCIe", "BP")
        result.note(
            f"BP memcpy/kernel ratio on PCIe: {bp:.2f} "
            "(paper: > 1, so zero-copy wins for BP/SCAN/3DFD)"
        )
    return result
