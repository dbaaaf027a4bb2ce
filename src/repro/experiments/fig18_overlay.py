"""Fig. 18 — host-thread (CPU) performance on UMN designs.

On a 1CPU-3GPU-16HMC unified memory network, the two workloads whose host
thread computes between kernels (CG.S, FT.S) are run on sMESH, sFBFLY, and
the proposed overlay (pass-through chains).  The overlay wins by slashing
per-hop latency for CPU packets even though its chain paths have more hops
(Section V-C).
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from ..config import SystemConfig
from ..exec import SweepExecutor
from ..system.configs import get_spec
from .common import ExperimentResult, run_jobs

DESIGNS = ("smesh", "sfbfly", "overlay")


def run(
    scale: float = 1.0,
    workloads: Sequence[str] = ("CG.S", "FT.S"),
    cfg: Optional[SystemConfig] = None,
    executor: Optional[SweepExecutor] = None,
) -> ExperimentResult:
    cfg = cfg or SystemConfig()
    cfg = dataclasses.replace(cfg, num_gpus=3)  # 1CPU-3GPU-16HMC
    executor = executor or SweepExecutor()
    result = ExperimentResult(
        "Fig. 18",
        "Host-thread performance on UMN designs (1CPU-3GPU-16HMC)",
        paper_note="overlay > sFBFLY > sMESH for CG.S and FT.S host threads",
        experiment_id="fig18",
    )
    jobs = [
        executor.job(get_spec("UMN").with_(topology=topology), name, cfg, scale=scale)
        for name in workloads
        for topology in DESIGNS
    ]
    results = run_jobs(jobs, executor, result)
    for i, name in enumerate(workloads):
        baseline = None
        for j, topology in enumerate(DESIGNS):
            r = results[i * len(DESIGNS) + j]
            if r is None:
                continue  # failed point (keep-going); reported on result
            if baseline is None:
                baseline = r.host_ps
            result.add(
                workload=name,
                design=topology,
                host_us=r.host_ps / 1e6,
                host_speedup_vs_smesh=round(baseline / r.host_ps, 3),
                kernel_us=r.kernel_ps / 1e6,
            )
    return result
