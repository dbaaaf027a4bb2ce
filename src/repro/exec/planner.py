"""Analytic-cost-guided sweep planning: LPT scheduling and the CostBook.

A sweep's makespan on a worker pool is decided by whichever long job
lands last: FIFO submission of (say) eight jobs on two workers can leave
one worker idle while the other grinds the sweep's slowest point that
happened to be declared last.  Submitting cache misses in
longest-predicted-first (LPT) order is the classic fix — and this repo
already owns a cheap cost oracle, the analytic fidelity tier (per-row
cost in docs/performance.md, "Analytic tier").

Two cooperating pieces:

- :func:`analytic_estimate` runs the analytic tier on a sweep point (in
  the parent, before submission) and reduces the prediction to *cost
  units* — predicted memory requests + network packet deliveries, the
  quantities event counts track.  Only registry workloads (Table II
  name + scale) are estimated: an explicit ``module:function`` factory
  may run arbitrary code at build time (the diagnostics workloads kill
  the building process on purpose), so factory-based points are never
  built in the parent and fall back to observed or default costs.  A
  point under another vault scheduler is estimated as its FR-FCFS twin:
  the analytic tier models FR-FCFS only, and LPT needs only the order.
- :class:`CostBook` turns units into seconds: an in-memory record,
  one per executor, of observed per-point wall times plus learned
  per-(arch, network_model) events-per-unit and events-per-second rates
  fed back from :class:`~repro.obs.telemetry.JobTelemetry`.  Observed
  walls override analytic estimates on the executor's later sweeps.
  Nothing is persisted: LPT needs only the *order* of the points, and
  the analytic estimate already gives it (docs/performance.md).

Scheduling is observational by construction: the executor merges
outcomes by submission index, so rows are byte-identical to serial and
FIFO runs regardless of pool submission order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..obs.telemetry import JobTelemetry
from .jobs import SweepJob

#: Pool submission orders the executor accepts (``--schedule``).
SCHEDULES = ("fifo", "lpt")

#: Fallback rates for a cold book: simulation events per cost unit and
#: events per second.  Only their *ratio* matters for LPT ordering; the
#: absolute scale just keeps predicted walls in a plausible range.
DEFAULT_EVENTS_PER_UNIT = 10.0
DEFAULT_EVENTS_PER_SEC = 50_000.0

#: Predicted wall for a point nothing is known about (no analytic
#: estimate, no observation): a neutral constant, so unknown points keep
#: their relative declaration order under the stable LPT sort.
DEFAULT_WALL_S = 1.0

#: ``run_kwargs`` forwarded to the analytic tier for cost estimation;
#: anything else (e.g. ``collect_traffic``) is irrelevant to cost.
_ESTIMATE_KWARGS = (
    "placement_policy",
    "placement_clusters",
    "placement_weights",
    "num_active_gpus",
    "seed",
)

#: Process-wide memo of analytic estimates, keyed on the spec's content
#: hash — every book that predicts the same point (each executor keeps
#: its own) costs one model run.
_ESTIMATES: Dict[str, Optional[float]] = {}
_ESTIMATES_MAX = 8192


@dataclass(frozen=True)
class CostPrediction:
    """One point's predicted wall time and where it came from."""

    wall_s: float
    #: ``"observed"`` (a prior run of this exact point), ``"rate"``
    #: (analytic units x learned per-(arch, model) rates), or
    #: ``"default"`` (cold book and/or no analytic estimate).
    source: str
    units: Optional[float] = None


def analytic_estimate(job: SweepJob) -> Optional[float]:
    """Predict ``job``'s cost units with the analytic tier, or ``None``.

    The units are predicted memory requests + network deliveries — the
    activity the event engines turn into events — floored at 1.

    Returns ``None`` — never raises — when the point cannot be estimated:
    factory-built workloads (arbitrary build-time code must stay in the
    workers), organizations or topologies the analytic model rejects, or
    any other model error.  A failed estimate degrades the *schedule*,
    never the sweep.
    """
    if job.workload.factory is not None:
        return None
    key = job.system.cache_key()
    if key in _ESTIMATES:
        return _ESTIMATES[key]
    try:
        from ..analytic.model import analytic_run, profile_for

        kwargs = {
            k: v for k, v in job.run_kwargs if k in _ESTIMATE_KWARGS
        }
        cfg = job.cfg.with_overrides(scheduler="frfcfs")
        result = analytic_run(
            job.spec, profile_for(job.workload), cfg=cfg, **kwargs
        )
        estimate: Optional[float] = max(
            float(result.memory_requests + result.net_delivered), 1.0
        )
    except Exception:
        estimate = None
    if len(_ESTIMATES) >= _ESTIMATES_MAX:
        _ESTIMATES.clear()
    _ESTIMATES[key] = estimate
    return estimate


@dataclass
class CostBook:
    """Self-improving per-point cost predictions for one executor.

    ``points`` maps a spec ``cache_key`` to its last observed
    ``{wall_s, events, units}``.  ``rates`` accumulates per-(arch,
    network_model) totals from which events-per-unit and
    events-per-second are derived.  The book lives in memory only: an
    executor keeps one across its sweeps (``repro all`` shares it
    between experiments), and a new process starts from the analytic
    estimate, which already gives LPT the order it needs.
    """

    points: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    rates: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @staticmethod
    def rate_key(job: SweepJob) -> str:
        return f"{job.spec.name}/{job.cfg.network_model}"

    def predict(self, job: SweepJob) -> CostPrediction:
        """Predicted wall seconds for ``job``, best knowledge first:
        observed wall of this exact point, else analytic units x learned
        rates, else defaults."""
        point = self.points.get(job.system.cache_key())
        if point and point["wall_s"] > 0:
            return CostPrediction(
                wall_s=point["wall_s"], source="observed", units=point["units"]
            )
        units = analytic_estimate(job)
        if units is None:
            return CostPrediction(wall_s=DEFAULT_WALL_S, source="default")
        rate = self.rates.get(self.rate_key(job))
        if rate is not None:
            # observe() only opens a rate with positive units, events and
            # wall, so both ratios are defined.
            events_per_unit = rate["events"] / rate["units"]
            events_per_sec = rate["events"] / rate["wall_s"]
            source = "rate"
        else:
            events_per_unit = DEFAULT_EVENTS_PER_UNIT
            events_per_sec = DEFAULT_EVENTS_PER_SEC
            source = "default"
        wall = units * events_per_unit / events_per_sec
        return CostPrediction(wall_s=wall, source=source, units=units)

    def observe(
        self,
        job: SweepJob,
        telemetry: JobTelemetry,
        units: Optional[float] = None,
    ) -> None:
        """Feed one executed point's flight record back into the book."""
        if telemetry.source != "run" or telemetry.wall_s <= 0:
            return
        self.points[job.system.cache_key()] = {
            "wall_s": round(telemetry.wall_s, 6),
            "events": telemetry.events,
            "units": units,
        }
        if units and units > 0 and telemetry.events > 0:
            rate = self.rates.setdefault(
                self.rate_key(job), {"units": 0.0, "events": 0, "wall_s": 0.0}
            )
            rate["units"] += units
            rate["events"] += telemetry.events
            rate["wall_s"] += telemetry.wall_s


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def predict_costs(
    jobs: Sequence[SweepJob], indices: Sequence[int], book: CostBook
) -> Dict[int, CostPrediction]:
    """Predict every pending point's wall time before submission."""
    return {i: book.predict(jobs[i]) for i in indices}


def lpt_order(
    indices: Sequence[int], predictions: Dict[int, CostPrediction]
) -> List[int]:
    """``indices`` sorted longest-predicted-first; ties keep declaration
    order (stable), so equal-cost points submit deterministically."""
    return sorted(indices, key=lambda i: (-predictions[i].wall_s, i))


__all__ = [
    "SCHEDULES",
    "CostBook",
    "CostPrediction",
    "analytic_estimate",
    "lpt_order",
    "predict_costs",
]
