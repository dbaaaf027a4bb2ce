"""Kernel, grid, and CTA abstractions.

A kernel is an unmodified single-GPU program: a grid of CTAs, where each
CTA's behaviour is produced on demand by ``cta_program(flat_index)``.  A CTA
is modeled as a sequence of :class:`Phase` objects — a batch of coalesced
memory accesses followed by compute — which preserves the memory intensity,
footprint, and ordering that the paper's evaluation depends on (DESIGN.md
section 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..mem import AccessType

_WRITE = AccessType.WRITE


class Access:
    """One coalesced memory access issued by a CTA phase.

    A value (equal, and hashing equal, to any access with the same
    fields) built once per access by every workload program, so it is a
    plain ``__slots__`` record with a hand-written ``__init__``, like
    :class:`repro.mem.DecodedAddress`.
    """

    __slots__ = ("vaddr", "size", "type")

    def __init__(self, vaddr: int, size: int, type: AccessType) -> None:
        self.vaddr = vaddr
        self.size = size
        self.type = type

    def _key(self) -> tuple:
        return (self.vaddr, self.size, self.type)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Access(vaddr={self.vaddr!r}, size={self.size!r}, type={self.type!r})"


@dataclass(frozen=True)
class Phase:
    """A CTA phase: issue ``accesses``, wait for them, then compute.

    ``compute_ps`` occupies the SM's execution resources after the memory
    batch completes, so compute from other resident CTAs hides memory
    latency the way warp multiplexing does on real hardware.
    """

    compute_ps: int
    accesses: Tuple[Access, ...] = ()
    #: The SM's issue order, split once here instead of on every
    #: execution: the fire-and-forget writes go first, then the blocking
    #: reads and atomics the phase waits for.
    writes: Tuple[Access, ...] = field(init=False, repr=False, compare=False)
    blocking: Tuple[Access, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.compute_ps < 0:
            raise ConfigError("phase compute time must be >= 0")
        accesses = self.accesses
        object.__setattr__(
            self, "writes", tuple([a for a in accesses if a.type is _WRITE])
        )
        object.__setattr__(
            self, "blocking", tuple([a for a in accesses if a.type is not _WRITE])
        )


CTAProgram = Callable[[int], Sequence[Phase]]


def flatten_index(idx: Tuple[int, ...], dim: Tuple[int, ...]) -> int:
    """Flatten a multi-dimensional CTA index (x fastest, per CUDA)."""
    if len(idx) != len(dim):
        raise ConfigError(f"index rank {len(idx)} != grid rank {len(dim)}")
    flat = 0
    stride = 1
    for i, d in zip(idx, dim):
        if not 0 <= i < d:
            raise ConfigError(f"CTA index {idx} outside grid {dim}")
        flat += i * stride
        stride *= d
    return flat


def unflatten_index(flat: int, dim: Tuple[int, ...]) -> Tuple[int, ...]:
    """Inverse of :func:`flatten_index`."""
    total = math.prod(dim)
    if not 0 <= flat < total:
        raise ConfigError(f"flat index {flat} outside grid of {total} CTAs")
    idx = []
    for d in dim:
        idx.append(flat % d)
        flat //= d
    return tuple(idx)


@dataclass
class Kernel:
    """An unmodified single-GPU kernel."""

    name: str
    grid_dim: Tuple[int, ...]
    cta_program: CTAProgram
    #: Label used in reports; kernels of the same workload share it.
    workload: str = ""
    #: Each CTA's phases once :meth:`keep_programs` is called, else None.
    _programs: Optional[Dict[int, Sequence[Phase]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.grid_dim or any(d < 1 for d in self.grid_dim):
            raise ConfigError(f"invalid grid {self.grid_dim}")

    @property
    def num_ctas(self) -> int:
        return math.prod(self.grid_dim)

    def keep_programs(self) -> None:
        """Keep each CTA's phases from its next :meth:`program` call on.

        A kernel that runs again (its workload memoized by
        :func:`repro.system.spec.workload_for` and run on the next
        organization of a sweep) then generates every CTA's phases once.
        Kept phases stay alive as long as the kernel, so a kernel that
        runs once does not keep them."""
        if self._programs is None:
            self._programs = {}

    def program(self, flat_cta: int) -> Sequence[Phase]:
        programs = self._programs
        if programs is not None:
            phases = programs.get(flat_cta)
            if phases is not None:
                return phases
        if not 0 <= flat_cta < self.num_ctas:
            raise ConfigError(
                f"CTA {flat_cta} outside kernel {self.name} "
                f"({self.num_ctas} CTAs)"
            )
        phases = self.cta_program(flat_cta)
        if programs is not None:
            programs[flat_cta] = phases
        return phases

    def __repr__(self) -> str:  # pragma: no cover
        return f"Kernel({self.name}, grid={self.grid_dim})"
