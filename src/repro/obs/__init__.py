"""Unified observability layer: metrics, tracing, sampling, profiling.

Four primitives, usable separately or bundled through
:class:`Observability`:

- :class:`MetricRegistry` + :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` — the hierarchical metric tree every
  ``MultiGPUSystem`` exposes as ``system.metrics``;
- :class:`ChromeTracer` — span/event tracing to Chrome trace-event JSON
  (open in Perfetto), hooked in via ``Simulator.tracer``;
- :class:`Sampler` — periodic snapshots of congestion gauges into
  windowed time series (``system.sampler`` after a sampled run);
- :class:`EventLoopProfiler` — wall-clock attribution of event callbacks
  per module, hooked in via ``Simulator.profiler``.

See ``docs/observability.md`` for usage and ``repro run --trace/--timeseries/
--profile`` for the CLI entry points.
"""

from .bind import (
    DEFAULT_SAMPLE_INTERVAL_PS,
    Observability,
    install_default_probes,
    register_system_metrics,
)
from .profiler import EventLoopProfiler
from .registry import Counter, Gauge, Histogram, MetricRegistry
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
    "Counter",
    "EventLoopProfiler",
    "Gauge",
    "Histogram",
    "JobTelemetry",
    "JsonlProgress",
    "MetricRegistry",
    "Observability",
    "ProgressListener",
    "Sampler",
    "TtyProgress",
    "flight_summary",
    "install_default_probes",
    "make_progress",
    "merge_trace_dir",
    "merge_traces",
    "register_system_metrics",
    "write_runlog",
    "write_worker_trace",
]
