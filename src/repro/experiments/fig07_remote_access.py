"""Fig. 7 — cost of remote memory access: PCIe vs the GPU memory network.

vectorAdd runs on a single GPU while its data is spread over 1, 2, or 4 GPU
memories.  On the PCIe system (Fig. 7(a), the paper measured real M2050s)
performance collapses by up to 11.7x; on the GMN (Fig. 7(b), simulated)
distributing data *helps* at 50% remote thanks to the added memory
parallelism, and saturates by 75% when the GPU channels are the limit.

Calibration: the Fig. 7(b) run lowers the per-vault service rate
(``vault_bus_bytes_per_cycle=2``) so that the all-local case is bound by
DRAM service rather than by the GPU channels, the regime the paper's
flit-level simulation exposes (see DESIGN.md section 8); Fig. 7(a) uses the
default configuration.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..config import SystemConfig
from ..exec import SweepExecutor, WorkloadRef
from . import claims
from .common import ExperimentResult, run_jobs

#: (label, per-cluster page weights) for the distribution sweep.
DISTRIBUTIONS = [
    ("1 GPU memory (all local)", [1.0, 0.0, 0.0, 0.0]),
    ("2 GPU memories (50% remote)", [0.5, 0.5, 0.0, 0.0]),
    ("4 GPU memories (75% remote)", [0.25, 0.25, 0.25, 0.25]),
]


def run(
    num_ctas: int = 96,
    lines_per_cta: int = 8,
    cfg: Optional[SystemConfig] = None,
    executor: Optional[SweepExecutor] = None,
) -> ExperimentResult:
    cfg = cfg or SystemConfig()
    executor = executor or SweepExecutor()
    result = ExperimentResult(
        "Fig. 7",
        "vectorAdd runtime vs data distribution (1 active GPU)",
        paper_note=(
            "PCIe degrades up to 11.7x with 4-way distribution; GMN improves "
            "at 50% remote and saturates at 75%"
        ),
        experiment_id="fig7",
    )
    workload = WorkloadRef(
        "vectoradd",
        factory="repro.workloads.vectoradd:make_vectoradd",
        kwargs=(("num_ctas", num_ctas), ("lines_per_cta", lines_per_cta)),
    )

    gmn_cfg = dataclasses.replace(
        cfg, hmc=dataclasses.replace(cfg.hmc, vault_bus_bytes_per_cycle=2)
    )
    systems = (("PCIe", cfg), ("GMN", gmn_cfg))
    jobs = [
        executor.job(
            arch,
            workload,
            run_cfg,
            placement_policy="weighted",
            placement_clusters=(0, 1, 2, 3),
            placement_weights=tuple(weights),
            num_active_gpus=1,
        )
        for arch, run_cfg in systems
        for _label, weights in DISTRIBUTIONS
    ]
    results = iter(run_jobs(jobs, executor, result))
    for arch, _run_cfg in systems:
        baseline = None
        for label, _weights in DISTRIBUTIONS:
            r = next(results)
            if r is None:
                continue  # failed point (keep-going); reported on result
            if baseline is None:
                baseline = r.kernel_ps
            result.add(
                system=arch,
                distribution=label,
                kernel_us=r.kernel_ps / 1e6,
                normalized_runtime=r.kernel_ps / baseline,
                avg_net_latency_ns=r.avg_net_latency_ps / 1e3,
                avg_hops=round(r.avg_hops, 2),
            )
    if result.complete:
        pcie = claims.measure("fig7.pcie-4way-slowdown", result.rows)
        result.note(
            f"PCIe degradation at 4-way distribution: {pcie:.1f}x (paper: 11.7x)"
        )
        gmn = claims.measure("fig7.gmn-50pct-faster", result.rows)
        result.note(
            f"GMN at 50% remote runs at {gmn:.2f}x "
            "of all-local (paper: < 1.0, i.e. faster)"
        )
    return result
