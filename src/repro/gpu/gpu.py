"""The GPU chip: SMs + shared L2 + the memory port into the system fabric.

The memory pipeline implements Section III-D:

- global reads allocate in L1/L2 normally (LRU);
- writes are **write-through, no-allocate** in both levels — they update a
  present line but never allocate, and always propagate to the HMC;
- atomics evict the target line from the requesting SM's L1 and from L2 and
  execute at the HMC's logic layer.

The chip-level MSHR table merges concurrent read misses to the same line so
one memory request serves all waiters.  The system builder supplies
``memory_port`` (how a request reaches its HMC: direct link, memory network,
or PCIe), ``translate`` (the shared SKE page table), and ``decode`` (the
physical address mapping).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..config import GPUConfig
from ..core.cta_scheduler import KernelSchedule
from ..core.kernel import Access, Kernel
from ..errors import SimulationError
from ..mem import AccessType, MemoryAccess
from ..sim.engine import Simulator
from .cache import Cache
from .sm import SM, _CTAContext

MemoryPort = Callable[[MemoryAccess, Callable[[], None]], None]

# Module-level aliases: the memory pipeline compares against these once or
# twice per access, and a global load is cheaper than an enum attribute.
_READ = AccessType.READ
_WRITE = AccessType.WRITE
_ATOMIC = AccessType.ATOMIC


@dataclass
class GPUStats:
    reads: int = 0
    writes: int = 0
    atomics: int = 0
    memory_requests: int = 0
    merged_misses: int = 0
    kernel_launches: int = 0
    busy_ps: int = 0


class _KernelContext:
    """Execution state of one kernel launch on one GPU."""

    __slots__ = ("kernel", "schedule", "on_done", "resident", "inflight",
                 "started_ps", "completed")

    def __init__(
        self,
        kernel: Kernel,
        schedule: KernelSchedule,
        on_done: Callable[[], None],
        started_ps: int,
    ) -> None:
        self.kernel = kernel
        self.schedule = schedule
        self.on_done = on_done
        self.resident = 0
        self.inflight = 0
        self.started_ps = started_ps
        self.completed = False


class GPU:
    """One discrete GPU of the multi-GPU system."""

    def __init__(
        self,
        sim: Simulator,
        gpu_id: int,
        cfg: Optional[GPUConfig] = None,
    ) -> None:
        self.sim = sim
        self.gpu_id = gpu_id
        self.cfg = cfg or GPUConfig()
        self.name = f"gpu{gpu_id}"
        self.sms: List[SM] = [SM(sim, self, s, self.cfg) for s in range(self.cfg.num_sms)]
        self.l2 = Cache(self.cfg.l2, name=f"{self.name}.l2")
        self.stats = GPUStats()
        # Per-instance copies of the latencies on every access's path.
        self._line_bytes = self.cfg.l1.line_bytes
        self._l1_hit_ps = self.cfg.l1.hit_latency_ps
        self._l1_l2_ps = self.cfg.l1.hit_latency_ps + self.cfg.l2.hit_latency_ps

        # Wired by the system builder.
        self.memory_port: Optional[MemoryPort] = None
        self.translate: Callable[[int], int] = lambda vaddr: vaddr
        self.decode = None

        self._mshr_table: Dict[int, List[Tuple[SM, Callable[[], None]]]] = {}
        self._contexts: List["_KernelContext"] = []
        self._rr_next = 0

    # ------------------------------------------------------------------
    # Kernel execution
    # ------------------------------------------------------------------
    def launch(
        self,
        kernel: Kernel,
        schedule: KernelSchedule,
        on_done: Callable[[], None],
        concurrent: bool = False,
    ) -> None:
        """Begin executing this GPU's share of ``kernel``'s CTAs.

        With ``concurrent=True`` the launch may overlap kernels already
        running on this GPU (the SKE extension to concurrent kernel
        execution, Section III); otherwise overlap is an error, matching
        in-order stream semantics.
        """
        if self._contexts and not concurrent:
            raise SimulationError(f"{self.name}: kernel already running")
        if self.memory_port is None:
            raise SimulationError(f"{self.name}: memory port not wired")
        ctx = _KernelContext(kernel, schedule, on_done, self.sim.now)
        self._contexts.append(ctx)
        self.stats.kernel_launches += 1
        self._fill_all_sms()
        # A GPU may receive zero CTAs (small grids, Section V-A).
        self.sim.after(0, partial(self._check_context, ctx))

    def _next_work(self) -> Optional[Tuple["_KernelContext", int]]:
        """Pull the next CTA, round-robin across active kernel contexts."""
        n = len(self._contexts)
        for i in range(n):
            ctx = self._contexts[(self._rr_next + i) % n]
            cta = ctx.schedule.next_cta(self.gpu_id)
            if cta is not None:
                self._rr_next = (self._rr_next + i + 1) % n
                return ctx, cta
        return None

    def _start_cta(self, sm: SM, ctx: "_KernelContext", cta: int) -> None:
        ctx.resident += 1
        sm.start_cta(cta, ctx.kernel.program(cta), token=ctx)

    def _fill_all_sms(self) -> None:
        """CTA placement: breadth-first round-robin over SMs (one CTA per
        SM per pass), as hardware CTA dispatchers do — this keeps all SMs
        busy even when this GPU's share of the grid is small."""
        progress = True
        while progress:
            progress = False
            # Least-loaded SM first, as hardware dispatchers balance load;
            # ties break by SM id for determinism.
            for sm in sorted(self.sms, key=lambda s: (s.resident_ctas, s.sm_id)):
                if not sm.has_free_slot:
                    continue
                work = self._next_work()
                if work is None:
                    return
                self._start_cta(sm, *work)
                progress = True

    def try_refill(self) -> None:
        """Pull more CTAs into free SM slots if kernels are running (used
        when a dynamic schedule gains work after launch, e.g. stealing)."""
        if self._contexts:
            self._fill_all_sms()

    def cta_finished(self, sm: SM, token: "_KernelContext") -> None:
        """Demand-driven refill after a CTA retires."""
        token.resident -= 1
        work = self._next_work()
        if work is not None:
            self._start_cta(sm, *work)
        if token.resident == 0:
            self._check_context(token)

    def _check_context(self, ctx: "_KernelContext") -> None:
        if ctx.completed or ctx.resident > 0 or ctx.inflight > 0:
            return
        if ctx.schedule.has_work(self.gpu_id):
            # Work remains (e.g. stealing armed after an empty initial
            # fill, or slots hogged by a concurrent kernel): start it now
            # if a slot is free, otherwise a later CTA retirement pulls it.
            for sm in self.sms:
                if sm.has_free_slot:
                    cta = ctx.schedule.next_cta(self.gpu_id)
                    if cta is not None:
                        self._start_cta(sm, ctx, cta)
                    break
            return
        ctx.completed = True
        self._contexts.remove(ctx)
        self.stats.busy_ps += self.sim.now - ctx.started_ps
        ctx.on_done()

    @property
    def active_kernels(self) -> int:
        return len(self._contexts)

    # ------------------------------------------------------------------
    # Memory pipeline
    # ------------------------------------------------------------------
    def access_memory(
        self,
        sm: SM,
        access: Access,
        cta: Optional[_CTAContext],
        token: "_KernelContext",
    ) -> None:
        """Issue one of ``sm``'s accesses.  ``cta`` is the CTA whose phase
        waits for the response (``None`` for a fire-and-forget write);
        ``token`` is the kernel launch whose drain waits for it."""
        line_bytes = self._line_bytes
        size = access.size
        if size > line_bytes:
            raise SimulationError(
                f"access of {size}B exceeds the {line_bytes}B "
                "line; workloads must emit line-sized coalesced accesses"
            )
        token.inflight += 1

        done = partial(self._access_done, sm, cta, token)
        paddr = self.translate(access.vaddr)
        line = paddr - paddr % line_bytes
        kind = access.type
        if kind is _READ:
            self._read(sm, line, done)
        elif kind is _WRITE:
            self._write(sm, paddr, line, size, done)
        else:
            self._atomic(sm, paddr, line, size, done)

    def _access_done(
        self, sm: SM, cta: Optional[_CTAContext], token: "_KernelContext"
    ) -> None:
        """The one completion callback of an access: the SM's side first
        (free the MSHR, end the phase's wait, issue more), then the
        kernel's drain check."""
        sm._outstanding -= 1
        if cta is not None:
            cta.waiting -= 1
            if cta.waiting == 0:
                sm._compute(cta)
        if sm._issue_queue:
            sm._pump_issue_queue()
        token.inflight -= 1
        if token.inflight == 0:
            self._check_context(token)

    # -- reads ----------------------------------------------------------
    def _read(self, sm: SM, line: int, done: Callable[[], None]) -> None:
        self.stats.reads += 1
        if sm.l1.lookup(line):
            self.sim.after(self._l1_hit_ps, done)
            return
        if self.l2.lookup(line):
            sm.l1.fill(line)
            self.sim.after(self._l1_l2_ps, done)
            return
        waiters = self._mshr_table.get(line)
        if waiters is not None:
            # Delayed hit: an earlier miss to the same line is in flight;
            # piggyback on it and reclassify the counted miss as an L2 hit
            # (the request never reaches memory), matching how GPGPU-sim
            # attributes MSHR merges.
            self.stats.merged_misses += 1
            self.l2.stats.misses -= 1
            self.l2.stats.hits += 1
            waiters.append((sm, done))
            return
        self._mshr_table[line] = [(sm, done)]
        request = self._make_request(line, self._line_bytes, _READ)
        self.sim.after(
            self._l1_l2_ps,
            partial(self._send, request, partial(self._fill_line, line)),
        )

    def _fill_line(self, line: int) -> None:
        """A read miss returned: fill L2, then release every merged waiter."""
        self.l2.fill(line)
        for waiter_sm, waiter_done in self._mshr_table.pop(line):
            waiter_sm.l1.fill(line)
            waiter_done()

    # -- writes ---------------------------------------------------------
    def _write(
        self, sm: SM, paddr: int, line: int, size: int, done: Callable[[], None]
    ) -> None:
        self.stats.writes += 1
        # Write-through: update on hit, never allocate on miss.
        sm.l1.lookup(line)
        self.l2.lookup(line, count=False)
        request = self._make_request(paddr, size, _WRITE)
        self._send(request, done)

    # -- atomics ---------------------------------------------------------
    def _atomic(
        self, sm: SM, paddr: int, line: int, size: int, done: Callable[[], None]
    ) -> None:
        self.stats.atomics += 1
        sm.l1.evict(line)
        self.l2.evict(line)
        request = self._make_request(paddr, size, _ATOMIC)
        self._send(request, done)

    # -- plumbing ---------------------------------------------------------
    def _make_request(self, paddr: int, size: int, kind: AccessType) -> MemoryAccess:
        decoded = self.decode(paddr) if self.decode is not None else None
        return MemoryAccess(paddr, size, kind, self.name, None, decoded)

    def _send(self, request: MemoryAccess, on_done: Callable[[], None]) -> None:
        self.stats.memory_requests += 1
        assert self.memory_port is not None
        self.memory_port(request, on_done)

    # ------------------------------------------------------------------
    # Aggregate cache statistics (Section III-B hit-rate claims)
    # ------------------------------------------------------------------
    def l1_hit_rate(self) -> float:
        hits = sum(sm.l1.stats.hits for sm in self.sms)
        accesses = sum(sm.l1.stats.accesses for sm in self.sms)
        return hits / accesses if accesses else 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"GPU({self.name}, {self.cfg.num_sms} SMs)"
