"""Extension — concurrent kernel execution on the virtual GPU.

Section III of the paper: "SKE is not necessarily limited to a single
kernel but can also be extended to support concurrent kernel execution";
the authors leave it as future work.  Here it is: the virtual GPU in
``concurrent=True`` mode launches kernels like independent CUDA streams,
and the per-GPU CTA dispatcher interleaves their CTAs onto free SM slots.

The win shows exactly where the Fermi whitepaper said it would: kernels
that individually underfill the machine (few CTAs, e.g. CG.S-sized grids)
overlap; big kernels that saturate the SMs see no benefit (the SMs are the
conserved resource).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..config import SystemConfig
from ..errors import ConfigError
from ..exec import SweepExecutor
from ..system.spec import WorkloadRef
from ..workloads.base import KernelStep, Workload
from ..workloads.suite import get_workload
from .common import ExperimentResult, run_jobs

#: (workload, scale) pairs: small grids that underfill 4 GPUs, and one
#: large saturating pair as the control.
DEFAULT_PAIRS: Sequence[Tuple[str, float, str, float]] = (
    ("CG.S", 1.0, "FT.S", 1.0),
    ("CG.S", 1.0, "CG.S", 1.0),
    ("BP", 1.0, "KMN", 1.0),
)


#: :func:`kernel_pair`'s parameters, in the order of a pair's fields.
PAIR_ARGS = ("name_a", "scale_a", "name_b", "scale_b")


def kernel_pair(name_a: str, scale_a: float, name_b: str, scale_b: float) -> Workload:
    """Both workloads' kernels, in order, as one kernels-only workload."""
    kernels = (
        get_workload(name_a, scale_a).kernels + get_workload(name_b, scale_b).kernels
    )
    return Workload(f"{name_a}+{name_b}", [KernelStep(k) for k in kernels])


def run(
    pairs: Sequence[Tuple[str, float, str, float]] = DEFAULT_PAIRS,
    cfg: Optional[SystemConfig] = None,
    executor: Optional[SweepExecutor] = None,
) -> ExperimentResult:
    """Two UMN jobs per pair: the kernels one after another, then all
    launched at once (``run_workload(..., concurrent=True)``)."""
    cfg = cfg or SystemConfig()
    executor = executor or SweepExecutor()
    if executor.fidelity == "analytic":
        raise ConfigError(
            "the analytic tier does not model concurrent kernels; use "
            "--fidelity packet or flit"
        )
    result = ExperimentResult(
        "Ext: concurrent",
        "Sequential vs concurrent kernel execution (extension; Section III "
        "future work)",
        paper_note="the paper defers concurrent kernel execution to future work",
        experiment_id="ext-concurrent",
    )
    refs = [
        WorkloadRef(
            f"{pair[0]}+{pair[2]}",
            factory="repro.experiments.ext_concurrent:kernel_pair",
            kwargs=tuple(sorted(zip(PAIR_ARGS, pair))),
        )
        for pair in pairs
    ]
    jobs = [
        executor.job("UMN", ref, cfg, concurrent=concurrent)
        for ref in refs
        for concurrent in (False, True)
    ]
    results = iter(run_jobs(jobs, executor, result))
    for ref in refs:
        seq, con = next(results), next(results)
        if seq is None or con is None:
            continue  # failed point (keep-going); reported on result
        result.add(
            kernels=ref.name,
            sequential_us=seq.total_ps / 1e6,
            concurrent_us=con.total_ps / 1e6,
            overlap_speedup=round(seq.total_ps / con.total_ps, 2),
        )
    result.note(
        "small grids overlap and speed up; SM-saturating kernel pairs are "
        "bound by total compute and see ~1.0x"
    )
    return result
