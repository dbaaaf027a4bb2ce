"""Workload profiling for the analytic tier.

The capacity model needs per-kernel traffic statistics, not the full
access trace.  Kernels are sampled: ``SAMPLE_CTAS`` consecutive CTA
programs are materialized and reduced to per-phase averages plus a
distinct-line curve (how the read footprint grows with the number of
CTAs), which extrapolates L2-filtered memory traffic to a full GPU's
chunk without walking every CTA.  Host steps are cheap enough (and
cache behaviour is history-dependent enough) to walk exactly with a
persistent seen-line set — the same filter the 16 MB host L2 applies.

Writes and atomics are not cache-filtered anywhere in the modeled
system (the GPU L2 is write-through no-allocate, atomics evict, the
host L2 never caches them), so only the *read* footprint needs the
power-law treatment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Set, Tuple

from ..mem import AccessType
from ..workloads.base import HostStep, KernelStep, Workload

#: Consecutive CTA programs sampled per kernel.  The CTA scheduler hands
#: each GPU a contiguous chunk, so consecutive CTAs are exactly what one
#: GPU executes back to back; 4 is enough to fit the two-point power law.
SAMPLE_CTAS = 4

#: GPU cache-line size (Table I); CTA access footprints are line-grained.
GPU_LINE_BYTES = 128

#: Host cache-line size (``CPUConfig.line_bytes``); the host L2 filters
#: reads at this grain.
HOST_LINE_BYTES = 64


def _power_law_alpha(u1: float, up: float, p: int) -> float:
    """Exponent of ``U(m) = U_p * (m / p) ** alpha``.

    ``alpha = 1`` means fully disjoint footprints (streaming), ``alpha =
    0`` means fully shared (a common read-only table).  Clamped to [0, 1]:
    sampling noise can push the raw fit slightly outside.
    """
    if p <= 1 or u1 <= 0 or up <= 0:
        return 1.0
    alpha = math.log(up / u1) / math.log(p)
    return min(1.0, max(0.0, alpha))


@dataclass(frozen=True)
class KernelProfile:
    """Traffic statistics of one kernel, from sampled CTA programs."""

    name: str
    num_ctas: int
    #: Averages over the sampled CTAs.
    phases_per_cta: float
    reads_per_cta: float
    writes_per_cta: float
    atomics_per_cta: float
    write_bytes_per_cta: float
    atomic_bytes_per_cta: float
    compute_ps_per_cta: float
    #: Distinct read lines of one CTA (avg) and of the sampled union.
    distinct_read_lines_1: float
    distinct_read_lines_sampled: float
    sampled_ctas: int
    alpha: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "alpha",
            _power_law_alpha(
                self.distinct_read_lines_1,
                self.distinct_read_lines_sampled,
                self.sampled_ctas,
            ),
        )

    def distinct_read_lines(self, num_ctas: int) -> float:
        """Extrapolated distinct read lines touched by ``num_ctas``
        consecutive CTAs — the kernel's L2-filtered read memory traffic."""
        if num_ctas <= 0:
            return 0.0
        return self.distinct_read_lines_sampled * (
            num_ctas / self.sampled_ctas
        ) ** self.alpha

    @property
    def reads_per_phase(self) -> float:
        return self.reads_per_cta / self.phases_per_cta if self.phases_per_cta else 0.0


@dataclass(frozen=True)
class HostStepProfile:
    """Exact walk of one host step against a persistent seen-line set."""

    phases: int
    #: Reads split by whether the (64 B) line was seen before this access.
    read_hits: int
    read_misses: int
    writes: int
    atomics: int
    write_bytes: int
    atomic_bytes: int
    compute_ps: int


@dataclass(frozen=True)
class WorkloadProfile:
    """Everything the capacity model needs to know about a workload."""

    name: str
    #: Kernel profiles in launch order (the runner launches sequentially).
    kernels: Tuple[KernelProfile, ...]
    #: Host-step profiles in program order.
    host_steps: Tuple[HostStepProfile, ...]
    h2d_bytes: int
    d2h_bytes: int


def _profile_kernel(kernel) -> KernelProfile:
    sampled = min(SAMPLE_CTAS, kernel.num_ctas)
    phases = reads = writes = atomics = 0
    write_bytes = atomic_bytes = compute_ps = 0
    union_lines: Set[int] = set()
    per_cta_lines = 0
    for cta in range(sampled):
        cta_lines: Set[int] = set()
        for phase in kernel.program(cta):
            phases += 1
            compute_ps += phase.compute_ps
            for access in phase.accesses:
                if access.type is AccessType.READ:
                    reads += 1
                    cta_lines.add(access.vaddr // GPU_LINE_BYTES)
                elif access.type is AccessType.WRITE:
                    writes += 1
                    write_bytes += access.size
                else:
                    atomics += 1
                    atomic_bytes += access.size
        per_cta_lines += len(cta_lines)
        union_lines |= cta_lines
    inv = 1.0 / sampled
    return KernelProfile(
        name=kernel.name,
        num_ctas=kernel.num_ctas,
        phases_per_cta=phases * inv,
        reads_per_cta=reads * inv,
        writes_per_cta=writes * inv,
        atomics_per_cta=atomics * inv,
        write_bytes_per_cta=write_bytes * inv,
        atomic_bytes_per_cta=atomic_bytes * inv,
        compute_ps_per_cta=compute_ps * inv,
        distinct_read_lines_1=per_cta_lines * inv,
        distinct_read_lines_sampled=float(len(union_lines)),
        sampled_ctas=sampled,
    )


def profile_workload(workload: Workload) -> WorkloadProfile:
    """Profile ``workload`` for the analytic tier.

    Kernels are sampled (consecutive CTAs — the chunk shape the static
    CTA scheduler produces); host steps are walked exactly, carrying the
    seen-line set across steps the way the host L2 carries its contents.
    """
    kernels: List[KernelProfile] = []
    host_steps: List[HostStepProfile] = []
    seen_lines: Set[int] = set()
    for step in workload.steps:
        if isinstance(step, KernelStep):
            kernels.append(_profile_kernel(step.kernel))
            continue
        assert isinstance(step, HostStep)
        phases = read_hits = read_misses = writes = atomics = 0
        write_bytes = atomic_bytes = compute_ps = 0
        for phase in step.phases:
            phases += 1
            compute_ps += phase.compute_ps
            for access in phase.accesses:
                if access.type is AccessType.READ:
                    line = access.vaddr // HOST_LINE_BYTES
                    if line in seen_lines:
                        read_hits += 1
                    else:
                        read_misses += 1
                        seen_lines.add(line)
                elif access.type is AccessType.WRITE:
                    writes += 1
                    write_bytes += access.size
                else:
                    atomics += 1
                    atomic_bytes += access.size
        host_steps.append(
            HostStepProfile(
                phases=phases,
                read_hits=read_hits,
                read_misses=read_misses,
                writes=writes,
                atomics=atomics,
                write_bytes=write_bytes,
                atomic_bytes=atomic_bytes,
                compute_ps=compute_ps,
            )
        )
    return WorkloadProfile(
        name=workload.name,
        kernels=tuple(kernels),
        host_steps=tuple(host_steps),
        h2d_bytes=workload.h2d_bytes,
        d2h_bytes=workload.d2h_bytes,
    )
