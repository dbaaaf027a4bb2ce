"""Unified observability layer: tracing, sampling, profiling.

Three primitives, usable separately or bundled through
:class:`Observability`:

- :class:`ChromeTracer` — span/event tracing to Chrome trace-event JSON
  (open in Perfetto), hooked in via ``Simulator.tracer``;
- :class:`Sampler` — periodic snapshots of congestion gauges into
  windowed time series (``system.sampler`` after a sampled run);
- :class:`EventLoopProfiler` — wall-clock attribution of event callbacks
  per module, hooked in via ``Simulator.profiler``.

The post-run totals per component (GPU, HMC, channel, network, PCIe, PCN)
are one tree, :func:`repro.system.report.system_report`.

See ``docs/observability.md`` for usage and ``repro run --trace/--timeseries/
--profile`` for the CLI entry points.
"""

from .bind import (
    DEFAULT_SAMPLE_INTERVAL_PS,
    Observability,
    install_default_probes,
)
from .profiler import EventLoopProfiler
from .sampler import Sampler
from .telemetry import (
    JobTelemetry,
    JsonlProgress,
    ProgressListener,
    TtyProgress,
    flight_summary,
    make_progress,
    merge_trace_dir,
    merge_traces,
    write_runlog,
    write_worker_trace,
)
from .tracer import ChromeTracer

__all__ = [
    "DEFAULT_SAMPLE_INTERVAL_PS",
    "ChromeTracer",
    "EventLoopProfiler",
    "JobTelemetry",
    "JsonlProgress",
    "Observability",
    "ProgressListener",
    "Sampler",
    "TtyProgress",
    "flight_summary",
    "install_default_probes",
    "make_progress",
    "merge_trace_dir",
    "merge_traces",
    "write_runlog",
    "write_worker_trace",
]
