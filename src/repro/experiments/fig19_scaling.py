"""Fig. 19 — kernel-execution speedup as the GPU count grows (UMN).

The seven workloads whose inputs could be grown (Section VI-B3) run on
1..16 GPUs; the paper reports a geomean speedup of 13.5 at 16 GPUs, with
compute-bound CP scaling near-ideally (and super-linearly at 8 GPUs from
the L2 hit-rate side effect) and FWT lowest (11.2x) because its input is
too small to keep the cores busy.

Per-workload input scales are chosen the way the paper grew its inputs:
large enough to exercise 16 GPUs — except FWT, which stays intentionally
small.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..config import SystemConfig
from ..exec import SweepExecutor
from . import claims
from .common import ExperimentResult, run_jobs

#: Input scale per workload (FWT deliberately small, per the paper).
DEFAULT_SCALES: Dict[str, float] = {
    "3DFD": 8.0,
    "BP": 4.0,
    "CP": 8.0,
    "FWT": 1.0,
    "RAY": 12.0,
    "SCAN": 4.0,
    "SRAD": 4.0,
}

GPU_COUNTS = (1, 2, 4, 8, 16)


def run(
    scales: Optional[Dict[str, float]] = None,
    gpu_counts: Sequence[int] = GPU_COUNTS,
    cfg: Optional[SystemConfig] = None,
    executor: Optional[SweepExecutor] = None,
) -> ExperimentResult:
    base_cfg = cfg or SystemConfig()
    scales = scales or DEFAULT_SCALES
    executor = executor or SweepExecutor()
    result = ExperimentResult(
        "Fig. 19",
        "Kernel speedup vs number of GPUs (UMN, sFBFLY)",
        paper_note=(
            "geomean 13.5x at 16 GPUs; CP near-ideal (super-linear at 8), "
            "FWT lowest at 11.2x"
        ),
        experiment_id="fig19",
    )
    jobs = [
        executor.job("UMN", name, base_cfg.scaled(num_gpus=n), scale=scale)
        for name, scale in scales.items()
        for n in gpu_counts
    ]
    results = run_jobs(jobs, executor, result)
    for i, name in enumerate(scales):
        workload_base = None
        row = {"workload": name}
        for j, n in enumerate(gpu_counts):
            r = results[i * len(gpu_counts) + j]
            if r is None:
                continue  # failed point (keep-going); reported on result
            if workload_base is None:
                workload_base = r.kernel_ps
            row[f"x{n}"] = round(workload_base / r.kernel_ps, 2)
        result.add(**row)
    if result.complete and result.rows:
        column = f"x{gpu_counts[-1]}"
        result.note(
            f"geomean speedup at {gpu_counts[-1]} GPUs: "
            f"{claims.scaling_geomean(result.rows, column):.1f}x (paper: 13.5x)"
        )
        final = claims.final_speedups(result.rows, column)
        best = max(final, key=final.get)
        worst = min(final, key=final.get)
        result.note(f"best scaling: {best} ({final[best]}x); worst: {worst} ({final[worst]}x)")
    return result
