"""Host CPU model.

The host thread is a latency-bound memory client: an out-of-order core with
a bounded effective memory-level parallelism (``max_outstanding``).  Host
work is a sequence of :class:`HostPhase` objects (compute + a batch of
cache-line accesses), mirroring the CTA phase model.  A small L2 cache
filters repeated lines; misses go out through the system-wired memory port —
the CPU's own DDR/HMC in conventional organizations, or the unified memory
network (optionally over the pass-through overlay) in UMN, which is exactly
what Fig. 18 measures.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from typing import Callable, Deque, Optional, Sequence, Tuple

from ..config import CacheConfig, CPUConfig
from ..errors import SimulationError
from ..gpu.cache import Cache
from ..mem import AccessType, MemoryAccess
from ..sim.engine import Simulator

MemoryPort = Callable[[MemoryAccess, Callable[[], None]], None]


@dataclass(frozen=True)
class HostAccess:
    vaddr: int
    size: int
    type: AccessType


@dataclass(frozen=True)
class HostPhase:
    """One step of host-thread work: a memory batch, then compute."""

    compute_ps: int
    accesses: Tuple[HostAccess, ...] = ()


@dataclass
class HostStats:
    phases: int = 0
    accesses: int = 0
    memory_requests: int = 0
    compute_ps: int = 0
    finished_at_ps: int = 0


class HostCPU:
    """The host CPU executing the CUDA host thread."""

    def __init__(self, sim: Simulator, cfg: Optional[CPUConfig] = None) -> None:
        self.sim = sim
        self.cfg = cfg or CPUConfig()
        self.name = "cpu"
        l2_cfg = CacheConfig(
            size_bytes=self.cfg.l2_size_bytes,
            ways=16,
            line_bytes=self.cfg.line_bytes,
            hit_latency_ps=self.cfg.l2_hit_ps,
        )
        self.l2 = Cache(l2_cfg, name="cpu.l2")
        self.stats = HostStats()

        # Wired by the system builder.
        self.memory_port: Optional[MemoryPort] = None
        self.translate: Callable[[int], int] = lambda vaddr: vaddr
        self.decode = None

        self._outstanding = 0
        self._issue_queue: Deque[Tuple[HostAccess, Callable[[], None]]] = (
            collections.deque()
        )

    # ------------------------------------------------------------------
    def run_program(
        self, phases: Sequence[HostPhase], on_done: Callable[[], None]
    ) -> None:
        """Execute host phases sequentially; ``on_done`` fires at the end."""
        if self.memory_port is None:
            raise SimulationError("cpu: memory port not wired")
        phases = list(phases)

        def run_phase(idx: int) -> None:
            if idx >= len(phases):
                self.stats.finished_at_ps = self.sim.now
                on_done()
                return
            phase = phases[idx]
            self.stats.phases += 1
            remaining = len(phase.accesses)

            def after_memory() -> None:
                self.stats.compute_ps += phase.compute_ps
                self.sim.after(phase.compute_ps, lambda: run_phase(idx + 1))

            if remaining == 0:
                after_memory()
                return
            state = {"left": remaining}

            def one_done() -> None:
                state["left"] -= 1
                if state["left"] == 0:
                    after_memory()

            for access in phase.accesses:
                self._enqueue(access, one_done)
            self._pump()

        run_phase(0)

    # ------------------------------------------------------------------
    # Memory path with bounded MLP
    # ------------------------------------------------------------------
    def _enqueue(self, access: HostAccess, done: Callable[[], None]) -> None:
        self._issue_queue.append((access, done))

    def _pump(self) -> None:
        while self._issue_queue and self._outstanding < self.cfg.max_outstanding:
            access, done = self._issue_queue.popleft()
            self._issue(access, done)

    def _issue(self, access: HostAccess, done: Callable[[], None]) -> None:
        self.stats.accesses += 1
        self._outstanding += 1

        def complete() -> None:
            self._outstanding -= 1
            done()
            self._pump()

        paddr = self.translate(access.vaddr)
        line = paddr - paddr % self.cfg.line_bytes
        if access.type is AccessType.READ and self.l2.lookup(line):
            self.sim.after(self.cfg.l2_hit_ps, complete)
            return
        if access.type is AccessType.READ:
            self.l2.fill(line)
        self.stats.memory_requests += 1
        request = MemoryAccess(
            paddr=line if access.type is AccessType.READ else paddr,
            size=access.size,
            type=access.type,
            requester=self.name,
            decoded=self.decode(paddr) if self.decode is not None else None,
        )
        assert self.memory_port is not None
        self.memory_port(request, complete)
