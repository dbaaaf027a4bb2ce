"""Trace-driven replay: re-inject a recorded memory trace on any
architecture.

Requests are issued **open-loop** at their recorded timestamps (optionally
time-scaled), bypassing the GPU cache hierarchy — the trace already reflects
cache filtering — and the replay measures the service latency each request
sees on the target interconnect.  This isolates the memory system from
execution effects, which is how NoC/memory papers traditionally compare
fabrics on identical load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..config import SystemConfig
from ..errors import SimulationError
from ..mem import MemoryAccess
from ..system.builder import MultiGPUSystem
from ..sim.watchdog import queue_depth_summary, resolve_limits, run_guarded
from ..system.configs import ArchSpec
from .recorder import TraceEvent


@dataclass
class ReplayResult:
    """Latency statistics from one trace replay."""

    arch: str
    requests: int
    completed: int
    makespan_ps: int
    total_latency_ps: int

    @property
    def avg_latency_ps(self) -> float:
        return self.total_latency_ps / self.completed if self.completed else 0.0


def replay_trace(
    trace: Sequence[TraceEvent],
    spec: ArchSpec,
    cfg: Optional[SystemConfig] = None,
    time_scale: float = 1.0,
) -> ReplayResult:
    """Replay ``trace`` on the architecture described by ``spec``.

    ``time_scale`` stretches (>1) or compresses (<1) the injection
    schedule, turning one trace into a load sweep.  The replay drains
    under the watchdog budgets of ``cfg`` and raises
    :class:`~repro.errors.SimulationError` unless every request completes.
    """
    cfg = cfg or SystemConfig()
    system = MultiGPUSystem(spec, cfg)
    sim = system.sim
    result = ReplayResult(arch=spec.name, requests=len(trace), completed=0,
                          makespan_ps=0, total_latency_ps=0)
    if not trace:
        return result
    base = min(e.t_ps for e in trace)

    def issue(event: TraceEvent) -> None:
        try:
            decoded = system.mapping.decode(event.paddr)
        except Exception as exc:  # address from an incompatible mapping
            raise SimulationError(
                f"trace address 0x{event.paddr:x} does not decode on this "
                f"system: {exc}"
            ) from None
        access = MemoryAccess(
            paddr=event.paddr,
            size=event.size,
            type=event.access_type,
            requester=event.requester,
            decoded=decoded,
        )
        issued = sim.now

        def done() -> None:
            result.completed += 1
            result.total_latency_ps += sim.now - issued

        if event.requester == "cpu":
            system._cpu_port(access, done)
        elif event.requester.startswith("gpu"):
            system._gpu_request(int(event.requester[3:]), access, done)
        else:
            raise SimulationError(f"unknown requester {event.requester!r}")

    for event in trace:
        when = round((event.t_ps - base) * time_scale)
        sim.at(when, (lambda e=event: issue(e)))
    label = f"trace replay on {spec.name}"
    run_guarded(
        sim, *resolve_limits(cfg), label, lambda: queue_depth_summary(system)
    )
    if result.completed < result.requests:
        raise SimulationError(
            f"{label}: {result.completed} of {result.requests} requests "
            f"completed; {queue_depth_summary(system)}"
        )
    result.makespan_ps = sim.now
    return result
