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
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

from ..errors import ConfigError
from ..mem import AccessType


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

    def __post_init__(self) -> None:
        if self.compute_ps < 0:
            raise ConfigError("phase compute time must be >= 0")


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

    def __post_init__(self) -> None:
        if not self.grid_dim or any(d < 1 for d in self.grid_dim):
            raise ConfigError(f"invalid grid {self.grid_dim}")

    @property
    def num_ctas(self) -> int:
        return math.prod(self.grid_dim)

    def program(self, flat_cta: int) -> Sequence[Phase]:
        if not 0 <= flat_cta < self.num_ctas:
            raise ConfigError(
                f"CTA {flat_cta} outside kernel {self.name} "
                f"({self.num_ctas} CTAs)"
            )
        return self.cta_program(flat_cta)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Kernel({self.name}, grid={self.grid_dim})"
