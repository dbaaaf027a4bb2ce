"""Periodic gauge sampler: windowed time series over simulated time.

A :class:`Sampler` schedules itself on the simulator every
``interval_ps`` and snapshots a set of probes into parallel arrays —
channel utilization, in-flight packets, vault queue depth, SM occupancy.
Two probe flavors exist:

- ``add(name, fn)`` — samples ``fn()`` as an instantaneous gauge;
- ``add_delta(name, fn, scale)`` — samples the *increase* of a monotonic
  counter ``fn()`` over the window (times ``scale``), which turns
  cumulative byte/busy counters into per-window rates and utilizations.

The sampler only re-arms while other events are pending, so it never keeps
the event queue alive on its own and ``Simulator.run()`` still terminates.
When a :class:`~repro.obs.tracer.ChromeTracer` is attached, every snapshot
is mirrored as Chrome counter events so the series render as graph tracks
under the spans in Perfetto.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..errors import MetricError


class Sampler:
    """Snapshots registered probes every ``interval_ps`` of simulated time."""

    def __init__(self, sim, interval_ps: int, tracer=None, pid: int = 0) -> None:
        if interval_ps <= 0:
            raise MetricError(f"sampling interval must be positive ({interval_ps})")
        self.sim = sim
        self.interval_ps = int(interval_ps)
        self.tracer = tracer
        self.pid = pid
        self.t_ps: List[int] = []
        self.series: Dict[str, List[float]] = {}
        self._probes: List = []  # (name, fn) gauges
        self._deltas: List = []  # (name, fn, scale, [prev]) windowed counters
        self._started = False

    # ------------------------------------------------------------------
    # Probe registration
    # ------------------------------------------------------------------
    def _claim(self, name: str) -> None:
        if name in self.series:
            raise MetricError(f"sampler probe {name!r} already registered")
        if self._started:
            raise MetricError("cannot add probes after the sampler started")
        self.series[name] = []

    def add(self, name: str, fn: Callable[[], float]) -> None:
        self._claim(name)
        self._probes.append((name, fn))

    def add_delta(
        self, name: str, fn: Callable[[], float], scale: float = 1.0
    ) -> None:
        self._claim(name)
        self._deltas.append((name, fn, scale, [float(fn())]))

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            raise MetricError("sampler already started")
        self._started = True
        self.sim.after(self.interval_ps, self._tick)

    def _tick(self) -> None:
        self.t_ps.append(self.sim.now)
        snapshot: Dict[str, float] = {}
        for name, fn in self._probes:
            value = float(fn())
            self.series[name].append(value)
            snapshot[name] = value
        for name, fn, scale, prev in self._deltas:
            current = float(fn())
            value = (current - prev[0]) * scale
            prev[0] = current
            self.series[name].append(value)
            snapshot[name] = value
        if self.tracer is not None:
            for name, value in snapshot.items():
                self.tracer.counter(
                    name, self.sim.now, {"value": value}, pid=self.pid or None
                )
        # Re-arm only while the simulation still has work: a lone periodic
        # event must not keep the queue alive forever.
        if self.sim.pending_events > 0:
            self.sim.after(self.interval_ps, self._tick)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def num_samples(self) -> int:
        return len(self.t_ps)

    def as_dict(self) -> Dict:
        """JSON-serializable dump: timestamps plus every series."""
        return {
            "interval_ps": self.interval_ps,
            "num_samples": self.num_samples,
            "t_ps": list(self.t_ps),
            "series": {name: list(vals) for name, vals in self.series.items()},
        }
