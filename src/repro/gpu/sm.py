"""Streaming multiprocessor model.

An SM holds up to ``max_ctas_per_sm`` resident CTAs and executes each CTA's
phases: issue the phase's coalesced memory batch (throttled by the SM's
MSHRs), wait for reads/atomics to return, then occupy the SM's shared
execution resources for the phase's compute time.  Compute from other
resident CTAs overlaps outstanding memory, modeling the latency hiding that
warp multiplexing provides on real hardware (DESIGN.md section 2).

Writes are fire-and-forget (relaxed consistency, Section III-D): they do not
block the issuing phase, but the GPU tracks them and kernel completion waits
for the write drain.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Deque, Sequence

from ..config import GPUConfig
from ..core.kernel import Phase
from ..errors import SimulationError
from .cache import Cache

if TYPE_CHECKING:  # pragma: no cover
    from .gpu import GPU


@dataclass
class SMStats:
    ctas_executed: int = 0
    phases_executed: int = 0
    accesses_issued: int = 0
    compute_ps: int = 0


class _CTAContext:
    """Execution state of one resident CTA."""

    __slots__ = ("cta_id", "phases", "phase_idx", "waiting", "token", "started_ps")

    def __init__(self, cta_id: int, phases: Sequence[Phase], token=None) -> None:
        self.cta_id = cta_id
        self.phases = phases
        self.phase_idx = 0
        #: When the CTA became resident (for the obs tracer's cta spans).
        self.started_ps = 0
        #: Blocking responses (reads/atomics) still outstanding this phase.
        self.waiting = 0
        #: The GPU-level kernel context this CTA belongs to.
        self.token = token


class SM:
    """One GPU core (stream multiprocessor)."""

    def __init__(self, sim, gpu: "GPU", sm_id: int, cfg: GPUConfig) -> None:
        self.sim = sim
        self.gpu = gpu
        self.sm_id = sm_id
        self.cfg = cfg
        self.l1 = Cache(cfg.l1, name=f"{gpu.name}.sm{sm_id}.l1")
        self.stats = SMStats()
        self._resident = 0
        #: Horizon of the SM's shared execution resources.
        self._compute_free = 0
        self._outstanding = 0
        self._mshrs = cfg.mshrs_per_sm
        self._issue_queue: Deque[tuple] = collections.deque()

    # ------------------------------------------------------------------
    # CTA lifecycle
    # ------------------------------------------------------------------
    @property
    def resident_ctas(self) -> int:
        return self._resident

    @property
    def has_free_slot(self) -> bool:
        return self._resident < self.cfg.max_ctas_per_sm

    def start_cta(self, cta_id: int, phases: Sequence[Phase], token=None) -> None:
        if not self.has_free_slot:
            raise SimulationError(f"SM{self.sm_id}: no free CTA slot")
        self._resident += 1
        ctx = _CTAContext(cta_id, phases, token=token)
        ctx.started_ps = self.sim.now
        # Schedule instead of running inline so a burst of launches
        # interleaves deterministically through the event queue.
        self.sim.after(0, partial(self._advance, ctx))

    def _advance(self, ctx: _CTAContext) -> None:
        if ctx.phase_idx >= len(ctx.phases):
            self._finish_cta(ctx)
            return
        phase = ctx.phases[ctx.phase_idx]
        blocking = phase.blocking
        token = ctx.token
        ctx.waiting = len(blocking)
        # Writes first (fire-and-forget), then the blocking accesses.
        queue = self._issue_queue
        for access in phase.writes:
            queue.append((access, None, token))
        for access in blocking:
            queue.append((access, ctx, token))
        self.stats.accesses_issued += len(phase.accesses)
        if not blocking:
            self._compute(ctx)
        self._pump_issue_queue()

    #: Compute timeslice: a CTA reserves the SM's execution resources in
    #: chunks of at most this, so co-resident CTAs (including ones from a
    #: concurrently executing kernel) share the pipelines round-robin
    #: instead of one long phase monopolizing the SM.
    COMPUTE_QUANTUM_PS = 100_000

    def _compute(self, ctx: _CTAContext) -> None:
        phase = ctx.phases[ctx.phase_idx]
        self.stats.compute_ps += phase.compute_ps
        self.stats.phases_executed += 1
        ctx.phase_idx += 1
        self._compute_chunk(ctx, phase.compute_ps)

    def _compute_chunk(self, ctx: _CTAContext, remaining: int) -> None:
        if remaining <= 0:
            self._advance(ctx)
            return
        chunk = min(remaining, self.COMPUTE_QUANTUM_PS)
        start = max(self.sim.now, self._compute_free)
        end = start + chunk
        self._compute_free = end
        self.sim.at(end, partial(self._compute_chunk, ctx, remaining - chunk))

    def _finish_cta(self, ctx: _CTAContext) -> None:
        self._resident -= 1
        self.stats.ctas_executed += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.complete(
                "cta",
                f"cta{ctx.cta_id}",
                ctx.started_ps,
                self.sim.now - ctx.started_ps,
                tid=f"{self.gpu.name}.sm{self.sm_id}",
            )
        self.gpu.cta_finished(self, ctx.token)

    # ------------------------------------------------------------------
    # Memory issue, throttled by MSHRs
    # ------------------------------------------------------------------
    def _pump_issue_queue(self) -> None:
        """Issue queued accesses while MSHRs are free.  Each completion
        comes back through :meth:`GPU._access_done`, which releases the
        MSHR, ends the phase's wait on the last blocking response and
        pumps again."""
        queue = self._issue_queue
        mshrs = self._mshrs
        access_memory = self.gpu.access_memory
        while queue and self._outstanding < mshrs:
            access, ctx, token = queue.popleft()
            self._outstanding += 1
            access_memory(self, access, ctx, token)

    @property
    def outstanding(self) -> int:
        return self._outstanding
