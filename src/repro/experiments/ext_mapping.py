"""Extension — locality-aware page placement (first-touch vs random).

Section III-C of the paper leaves open "how to optimize memory mapping to
increase locality in the memory network traffic".  This experiment answers
the obvious first candidate: NUMA-style **first-touch** placement — a page
lands on the home cluster of the device that first touches it.  Under SKE's
chunked CTA assignment, a streaming kernel's pages then land on the GPU
that will keep using them, turning most network traffic into local-HMC
traffic: fewer hops, lower latency, and lower network energy than the
paper's random placement, at the cost of load-balance on irregular
workloads (compare CG.S).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import SystemConfig
from ..exec import SweepExecutor
from . import claims
from .common import ExperimentResult, run_jobs

DEFAULT_WORKLOADS = ("BP", "SCAN", "3DFD", "SRAD", "KMN", "CG.S")


def run(
    scale: float = 0.25,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    arch: str = "GMN",
    cfg: Optional[SystemConfig] = None,
    executor: Optional[SweepExecutor] = None,
) -> ExperimentResult:
    cfg = cfg or SystemConfig()
    executor = executor or SweepExecutor()
    result = ExperimentResult(
        "Ext: mapping",
        "Random vs first-touch page placement (extension; Section III-C "
        "open question)",
        paper_note=(
            "the paper uses random placement and notes locality-aware "
            "mapping as future work"
        ),
        experiment_id="ext-mapping",
    )
    jobs = [
        executor.job(arch, name, cfg, scale=scale, placement_policy=policy)
        for name in workloads
        for policy in ("random", "first_touch")
    ]
    results = iter(run_jobs(jobs, executor, result))
    for name in workloads:
        for policy in ("random", "first_touch"):
            r = next(results)
            if r is None:
                continue  # failed point (keep-going); reported on result
            result.add(
                workload=name,
                placement=policy,
                kernel_us=r.kernel_ps / 1e6,
                avg_hops=round(r.avg_hops, 2),
                avg_net_latency_ns=round(r.avg_net_latency_ps / 1e3, 1),
                energy_uj=r.energy.total_uj if r.energy else 0.0,
            )
    if not result.complete:
        return result  # summary notes need both placements per workload
    speedups = claims.first_touch_speedups(result.rows)
    gains = ", ".join(f"{n}: {s:.2f}x" for n, s in speedups.items())
    result.note(f"first-touch kernel speedup over random: {gains}")
    result.note(
        "streaming workloads gain (pages become local); imbalanced CG.S "
        "shows the load-balance cost of locality"
    )
    return result
