"""CTA access-pattern generators.

Each generator builds the phase list for one CTA given a virtual-memory
layout.  The four patterns cover the behaviours the paper's workload suite
exhibits (Section V-A, Table II):

- ``stream``        — disjoint contiguous chunks per CTA (vectorAdd, SCAN,
  FWT, STO): adjacent CTAs touch adjacent memory, the "regular access
  pattern" that makes chunked CTA assignment cache-friendly.
- ``stencil``       — contiguous rows plus halo rows shared with
  neighbouring CTAs (SRAD, 3DFD): direct reuse between adjacent CTAs.
- ``random``        — uniform random lines in a footprint, optionally with
  atomics (BFS, BH, SP): irregular graph workloads.
- ``shared_stream`` — a small read-only table read by every CTA plus a
  streamed partition (KMN centroids, CP atom list, RAY scene).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from ..core.kernel import Access, Phase
from ..errors import ConfigError
from ..mem import AccessType

LINE = 128


@dataclass(frozen=True)
class Region:
    """A contiguous virtual-address region of whole cache lines."""

    base: int
    lines: int
    line_bytes: int = LINE

    def __post_init__(self) -> None:
        if self.base % self.line_bytes:
            raise ConfigError("region base must be line-aligned")
        if self.lines < 1:
            raise ConfigError("region needs at least one line")

    @property
    def bytes(self) -> int:
        return self.lines * self.line_bytes

    def line_addr(self, index: int) -> int:
        return self.base + (index % self.lines) * self.line_bytes


_READ = AccessType.READ
_WRITE = AccessType.WRITE
_ATOMIC = AccessType.ATOMIC


def _read(addr: int) -> Access:
    return Access(addr, LINE, _READ)


def _write(addr: int) -> Access:
    return Access(addr, LINE, _WRITE)


def _atomic(addr: int) -> Access:
    return Access(addr, 32, _ATOMIC)


def stream_program(
    cta: int,
    num_phases: int,
    read_lines: int,
    write_lines: int,
    compute_ps: int,
    inputs: List[Region],
    output: Region,
    chunk_base: int = 0,
) -> List[Phase]:
    """Each phase reads the CTA's next chunk of every input region and
    writes its chunk of the output region.

    ``chunk_base`` offsets the chunk index so successive kernel launches of
    a multi-pass workload stream over distinct data.
    """
    phases = []
    for p in range(num_phases):
        chunk = chunk_base + cta * num_phases + p
        accesses: List[Access] = []
        for region in inputs:
            start = chunk * read_lines
            accesses.extend(_read(region.line_addr(start + i)) for i in range(read_lines))
        start = chunk * write_lines
        accesses.extend(
            _write(output.line_addr(start + i)) for i in range(write_lines)
        )
        phases.append(Phase(compute_ps=compute_ps, accesses=tuple(accesses)))
    return phases


def stencil_program(
    cta: int,
    num_phases: int,
    row_lines: int,
    halo_rows: int,
    compute_ps: int,
    grid: Region,
    output: Region,
) -> List[Phase]:
    """Each CTA owns a row of ``row_lines`` lines and also reads the halo
    rows of its neighbours, so adjacent CTAs share lines."""
    phases = []
    for p in range(num_phases):
        accesses: List[Access] = []
        for dr in range(-halo_rows, halo_rows + 1):
            row_base = (cta + dr) * row_lines
            if row_base < 0:
                continue
            accesses.extend(
                _read(grid.line_addr(row_base + i)) for i in range(row_lines)
            )
        out_base = cta * row_lines
        accesses.extend(
            _write(output.line_addr(out_base + i)) for i in range(row_lines)
        )
        phases.append(Phase(compute_ps=compute_ps, accesses=tuple(accesses)))
    return phases


def random_program(
    cta: int,
    num_phases: int,
    reads_per_phase: int,
    writes_per_phase: int,
    compute_ps: int,
    footprint: Region,
    atomic_region: Region,
    atomic_fraction: float,
    seed: int,
) -> List[Phase]:
    """Uniform random lines over the footprint; a fraction of the writes
    become atomics on a small contended region (frontier updates etc.)."""
    rng = random.Random((seed << 24) ^ cta)
    phases = []
    for _ in range(num_phases):
        accesses: List[Access] = []
        accesses.extend(
            _read(footprint.line_addr(rng.randrange(footprint.lines)))
            for _ in range(reads_per_phase)
        )
        for _ in range(writes_per_phase):
            if rng.random() < atomic_fraction:
                accesses.append(
                    _atomic(atomic_region.line_addr(rng.randrange(atomic_region.lines)))
                )
            else:
                accesses.append(
                    _write(footprint.line_addr(rng.randrange(footprint.lines)))
                )
        phases.append(Phase(compute_ps=compute_ps, accesses=tuple(accesses)))
    return phases


def shared_stream_program(
    cta: int,
    num_phases: int,
    shared_lines_per_phase: int,
    stream_lines_per_phase: int,
    write_lines: int,
    compute_ps: int,
    shared: Region,
    data: Region,
    output: Region,
    chunk_base: int = 0,
) -> List[Phase]:
    """Every CTA re-reads a shared table while streaming its own chunk."""
    phases = []
    for p in range(num_phases):
        accesses: List[Access] = []
        table_start = p * shared_lines_per_phase
        accesses.extend(
            _read(shared.line_addr(table_start + i))
            for i in range(shared_lines_per_phase)
        )
        chunk = chunk_base + cta * num_phases + p
        start = chunk * stream_lines_per_phase
        accesses.extend(
            _read(data.line_addr(start + i)) for i in range(stream_lines_per_phase)
        )
        out = chunk * write_lines
        accesses.extend(_write(output.line_addr(out + i)) for i in range(write_lines))
        phases.append(Phase(compute_ps=compute_ps, accesses=tuple(accesses)))
    return phases
