"""Wiring between the observability primitives and a built system.

:func:`install_default_probes` arms a :class:`~repro.obs.sampler.Sampler`
with the standard congestion series (channel utilization, in-flight
packets, vault queue depth, SM occupancy) over a ``MultiGPUSystem``
(duck-typed, so this module never imports the system layer).  The
post-run totals per component are :func:`repro.system.report.system_report`.

:class:`Observability` bundles the per-run configuration (trace on/off,
sampling cadence, profiling on/off) and is what flows from the CLI into
``run_workload`` / ``MultiGPUSystem``.  A sweep reuses one bundle across
many system instances: traces land in one file with one trace "process"
per run, the profiler accumulates, and each run gets its own sampler.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import MetricError
from .profiler import EventLoopProfiler
from .sampler import Sampler
from .tracer import ChromeTracer

#: Default sampling cadence: 0.25 simulated microseconds (the CLI default;
#: short enough that even sub-microsecond microbenchmark runs get samples).
DEFAULT_SAMPLE_INTERVAL_PS = 250_000


def install_default_probes(sampler: Sampler, system) -> None:
    """Arm the standard congestion time series on ``sampler``."""
    vaults = [v for hmc in system.hmc_list for v in hmc.vaults]
    sampler.add(
        "vault.queue_depth.mean",
        lambda: sum(v.occupancy for v in vaults) / len(vaults) if vaults else 0.0,
    )
    sampler.add(
        "vault.queue_depth.max",
        lambda: max((v.occupancy for v in vaults), default=0),
    )
    sampler.add(
        "vault.overflow_peak.max",
        lambda: max((v.stats.overflow_peak for v in vaults), default=0),
    )
    sampler.add_delta(
        "vault.queue_wait.ps_per_window",
        lambda: sum(v.stats.total_queue_wait_ps for v in vaults),
    )
    sampler.add(
        "gpu.resident_ctas",
        lambda: sum(sm.resident_ctas for g in system.gpus for sm in g.sms),
    )
    sampler.add(
        "gpu.outstanding_mem",
        lambda: sum(sm.outstanding for g in system.gpus for sm in g.sms),
    )
    if system.network is not None:
        stats = system.network.stats
        sampler.add("net.in_flight", lambda s=stats: s.injected - s.delivered)
        channels = system.network_channels()
        if channels:
            scale = 1.0 / (sampler.interval_ps * len(channels))
            sampler.add_delta(
                "net.channel_utilization",
                lambda chs=channels: sum(ch.stats.busy_ps for ch in chs),
                scale=scale,
            )
    if system.pcie is not None:
        sampler.add_delta("pcie.bytes_per_window", lambda: system.pcie.bytes)


class Observability:
    """One bundle of telemetry sinks, shared across the runs of a sweep."""

    def __init__(
        self,
        trace: bool = False,
        sample_interval_us: Optional[float] = None,
        profile: bool = False,
    ) -> None:
        self.tracer: Optional[ChromeTracer] = ChromeTracer() if trace else None
        self.profiler: Optional[EventLoopProfiler] = (
            EventLoopProfiler() if profile else None
        )
        if sample_interval_us is not None and sample_interval_us <= 0:
            raise MetricError(
                f"sample interval must be positive, got {sample_interval_us}"
            )
        self.sample_interval_ps = (
            int(sample_interval_us * 1e6)
            if sample_interval_us is not None
            else 0
        )
        #: One sampler per bound system, in bind order.
        self.samplers: List[Sampler] = []

    # ------------------------------------------------------------------
    def bind(self, system) -> None:
        """Attach the sinks to one freshly built system (pre-run)."""
        sim = system.sim
        pid = self.bind_sim(sim, system.spec.name)
        if self.sample_interval_ps > 0:
            sampler = Sampler(
                sim, self.sample_interval_ps, tracer=self.tracer, pid=pid
            )
            install_default_probes(sampler, system)
            sampler.start()
            self.samplers.append(sampler)
            system.sampler = sampler

    def bind_sim(self, sim, label: str) -> int:
        """Attach the tracer (one trace process named ``label``) and the
        profiler to ``sim``; returns the trace process id, 0 untraced.

        A network-only run binds only these: it builds no system for the
        default probes to read, so a sampling interval records no time
        series for it."""
        pid = 0
        if self.tracer is not None:
            pid = self.tracer.begin_process(label)
            sim.tracer = self.tracer
        if self.profiler is not None:
            sim.profiler = self.profiler
        return pid

    # ------------------------------------------------------------------
    def finish(self, trace_path: Optional[str] = None) -> None:
        """Flush sinks at the end of a CLI invocation."""
        if self.tracer is not None and trace_path:
            self.tracer.dump(trace_path)
