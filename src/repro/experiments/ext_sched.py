"""Extension — vault scheduling policies under heterogeneous traffic.

The paper fixes vault scheduling at FR-FCFS (Table I); with the
:mod:`repro.hmc.sched` registry it becomes a sweep axis.  This experiment
crosses the registered policies with memory-network organizations on the
host-participating workloads (CG.S, FT.S: GPU kernels interleaved with
CPU reduction/twiddle steps), the multi-tenant shape where source-aware
scheduling matters — a latency-bound CPU competing with bandwidth-bound
GPU streams at shared HMCs, per Ausavarungnirun et al.'s staged
memory-scheduler work.

Each row reports the usual runtime breakdown plus per-source service:
mean vault queue wait per requester class (``cpu_wait_ns`` /
``gpu_wait_ns``), served counts, and Jain's fairness index over the
class mean waits (1.0 = classes wait equally; lower = skewed).  Expect
``qos_staged`` to cut ``cpu_wait_ns`` on the shared-HMC organizations at
some GPU cost, ``fcfs`` to anchor the no-reordering floor, and
``frfcfs_cap`` to sit near ``frfcfs`` with bounded worst-case waits.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from ..config import SystemConfig
from ..exec import SweepExecutor, WorkloadRef
from .common import ExperimentResult, run_jobs

DEFAULT_POLICIES: Sequence[str] = ("frfcfs", "fcfs", "frfcfs_cap", "qos_staged")
DEFAULT_ARCHS: Sequence[str] = ("UMN", "GMN")
DEFAULT_WORKLOADS: Sequence[str] = ("CG.S", "FT.S")


def _jain(values: Sequence[float]) -> float:
    """Jain's fairness index over positive values (1.0 when all equal)."""
    present = [v for v in values if v > 0]
    if not present:
        return 1.0
    square_sum = sum(v * v for v in present)
    return (sum(present) ** 2) / (len(present) * square_sum)


def run(
    scale: float = 0.25,
    policies: Sequence[str] = DEFAULT_POLICIES,
    archs: Sequence[str] = DEFAULT_ARCHS,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    cfg: Optional[SystemConfig] = None,
    executor: Optional[SweepExecutor] = None,
) -> ExperimentResult:
    base = cfg or SystemConfig()
    executor = executor or SweepExecutor()
    result = ExperimentResult(
        "Ext: sched",
        "Vault scheduling policies x organizations under CPU+GPU traffic "
        "(extension; Table I fixes FR-FCFS)",
        paper_note=(
            "the paper fixes FR-FCFS; staged source-aware policies follow "
            "the heterogeneous memory-scheduler literature"
        ),
    )
    if executor.scheduler is not None:
        # --scheduler pins the whole invocation to one policy; sweeping
        # the full registry underneath it would silently contradict the
        # flag (executor.job applies it to every job it builds).
        policies = (executor.scheduler,)
        result.note(f"--scheduler {executor.scheduler}: sweeping only that policy")
    grid = [(p, a, w) for p in policies for a in archs for w in workloads]
    jobs = []
    for policy, arch, workload in grid:
        pcfg = (
            base
            if base.hmc.scheduler == policy
            else base.scaled(hmc=dataclasses.replace(base.hmc, scheduler=policy))
        )
        jobs.append(
            executor.job(
                arch,
                WorkloadRef(workload, scale),
                pcfg,
                tag=f"{workload}@{arch}/{policy}",
            )
        )
    results = run_jobs(jobs, executor, result)
    for (policy, arch, workload), res in zip(grid, results):
        if res is None:
            continue  # failed point; reported on result
        cpu_wait = res.avg_class_wait_ps("cpu")
        gpu_wait = res.avg_class_wait_ps("gpu")
        result.add(
            workload=workload,
            arch=arch,
            scheduler=policy,
            total_us=res.runtime_ps / 1e6,
            kernel_us=res.kernel_ps / 1e6,
            host_us=res.host_ps / 1e6,
            cpu_wait_ns=round(cpu_wait / 1e3, 2),
            gpu_wait_ns=round(gpu_wait / 1e3, 2),
            cpu_served=res.class_served.get("cpu", 0),
            gpu_served=res.class_served.get("gpu", 0),
            row_hit=round(res.hmc_row_hit_rate, 3),
            wait_fairness=round(_jain((cpu_wait, gpu_wait)), 3),
        )
    if result.rows:
        result.note(
            "cpu_wait_ns/gpu_wait_ns: mean vault queue wait per requester "
            "class; wait_fairness: Jain index over the class means "
            "(1.0 = equal waits)"
        )
    return result
