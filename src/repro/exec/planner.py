"""Analytic-cost-guided sweep planning: LPT scheduling, the CostBook,
and the opt-in dominated-point prefilter.

A sweep's makespan on a worker pool is decided by whichever long job
lands last: FIFO submission of (say) eight jobs on two workers can leave
one worker idle while the other grinds the sweep's slowest point that
happened to be declared last.  Submitting cache misses in
longest-predicted-first (LPT) order is the classic fix — and this repo
already owns a ~2 ms cost oracle, the analytic fidelity tier (PR 7).

Three cooperating pieces:

- :func:`analytic_estimate` runs the analytic tier on a sweep point (in
  the parent, before submission) and reduces the prediction to *cost
  units* — predicted memory requests + network packet deliveries, the
  quantities event counts track.  Only registry workloads (Table II
  name + scale) are estimated: an explicit ``module:function`` factory
  may run arbitrary code at build time (the diagnostics workloads kill
  the building process on purpose), so factory-based points are never
  built in the parent and fall back to observed or default costs.
- :class:`CostBook` turns units into seconds: a small JSON artifact
  persisted next to the :class:`~repro.exec.cache.ResultCache`
  (``costbook.json``) holding observed per-point wall times plus learned
  per-(arch, network_model) events-per-unit and events-per-second rates
  fed back from :class:`~repro.obs.telemetry.JobTelemetry`.  Observed
  walls override analytic estimates on later runs, so predictions
  self-improve; points are keyed on the spec's code-version-independent
  ``cache_key`` so the book survives code changes.  A corrupt book is a
  counted miss, never a crash — mirroring the PR-5 corrupt-cache rule.
- :func:`prefilter_jobs` (the CLI's ``--prefilter``, exploration sweeps
  only) uses analytic predicted runtimes to skip clearly-dominated
  points, returning a record for every pruned point so telemetry can
  report them — silent truncation is not an option.

Scheduling is observational by construction: the executor merges
outcomes by submission index, so rows are byte-identical to serial and
FIFO runs regardless of pool submission order.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

try:  # POSIX only; on other platforms saves fall back to unlocked.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

from ..errors import ConfigError
from ..obs.telemetry import JobTelemetry
from .jobs import SweepJob

#: Pool submission orders the executor accepts (``--schedule``).
SCHEDULES = ("fifo", "lpt")

#: Bump when the ``costbook.json`` layout changes shape.
COSTBOOK_SCHEMA = 1

#: The CostBook's filename, a sidecar of the result-cache directory.
COSTBOOK_NAME = "costbook.json"

#: Keep the persisted book bounded; oldest observed points are dropped.
COSTBOOK_MAX_POINTS = 4096

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

@contextmanager
def _book_lock(path: Path):
    """Exclusive advisory lock serializing CostBook read-merge-write.

    Locks a ``.lock`` sidecar (the book itself is swapped by
    ``os.replace``, so locking its inode would guard a file that no
    longer exists after the first writer finishes).  Best-effort like
    every other CostBook I/O: when ``fcntl`` is missing or the lock file
    cannot be opened, the save proceeds unlocked rather than failing the
    sweep.
    """
    fd = None
    if fcntl is not None:
        try:
            fd = os.open(
                str(path.with_name(path.name + ".lock")),
                os.O_CREAT | os.O_RDWR,
                0o644,
            )
            fcntl.flock(fd, fcntl.LOCK_EX)
        except OSError:
            if fd is not None:
                os.close(fd)
            fd = None
    try:
        yield
    finally:
        if fd is not None:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            except OSError:
                pass
            os.close(fd)


#: Process-wide memo of analytic estimates, keyed on the spec's content
#: hash — planning and prefiltering the same point costs one model run.
_ESTIMATES: Dict[str, Optional["AnalyticEstimate"]] = {}
_ESTIMATES_MAX = 8192


@dataclass(frozen=True)
class AnalyticEstimate:
    """The analytic tier's cost view of one sweep point."""

    #: Predicted memory requests + network deliveries — the activity the
    #: event engines turn into events.
    units: float
    #: Predicted simulated runtime (the prefilter's objective).
    total_ps: float


@dataclass(frozen=True)
class CostPrediction:
    """One point's predicted wall time and where it came from."""

    wall_s: float
    #: ``"observed"`` (a prior run of this exact point), ``"rate"``
    #: (analytic units x learned per-(arch, model) rates), or
    #: ``"default"`` (cold book and/or no analytic estimate).
    source: str
    units: Optional[float] = None


def analytic_estimate(job: SweepJob) -> Optional[AnalyticEstimate]:
    """Predict ``job``'s cost units with the analytic tier, or ``None``.

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
        from ..analytic import analytic_cost, profile_for

        kwargs = {
            k: v for k, v in job.run_kwargs if k in _ESTIMATE_KWARGS
        }
        cost = analytic_cost(
            job.spec, profile_for(job.workload), cfg=job.cfg, **kwargs
        )
        estimate: Optional[AnalyticEstimate] = AnalyticEstimate(
            units=max(float(cost["units"]), 1.0),
            total_ps=float(cost["total_ps"]),
        )
    except Exception:
        estimate = None
    if len(_ESTIMATES) >= _ESTIMATES_MAX:
        _ESTIMATES.clear()
    _ESTIMATES[key] = estimate
    return estimate


@dataclass
class CostBookStats:
    """Prediction provenance counters (mirrors
    :class:`~repro.exec.cache.CacheStats`)."""

    hits: int = 0  # predictions served from an observed wall
    misses: int = 0  # predictions that fell through to rates/defaults
    corrupt: int = 0  # unreadable books dropped and restarted empty
    observed: int = 0  # wall times fed back this process

    def as_note(self) -> str:
        note = f"costbook: {self.hits} observed, {self.misses} estimated"
        if self.corrupt:
            note += f", {self.corrupt} corrupt book(s) dropped"
        return note


@dataclass
class CostBook:
    """Self-improving per-point cost predictions, persisted as JSON.

    ``points`` maps a spec ``cache_key`` (code-version independent, so
    observations survive code changes) to its last observed
    ``{wall_s, events, units}``.  ``rates`` accumulates per-(arch,
    network_model) totals from which events-per-unit and
    events-per-second are derived.  All I/O is best-effort: a missing
    file is an empty book, a corrupt file is a *counted* drop
    (``stats.corrupt``), and a failed save is ignored — cost bookkeeping
    must never fail a sweep.
    """

    path: Optional[Path] = None
    points: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    rates: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    stats: CostBookStats = field(default_factory=CostBookStats)

    def __post_init__(self) -> None:
        self.path = Path(self.path) if self.path else None
        self._dirty = False
        #: Observations made by *this* book since its last save.  A save
        #: re-reads the on-disk book under a lock and applies only these
        #: deltas, so two concurrent sweeps (or two server workers) can
        #: no longer silently drop each other's updates in a
        #: read-modify-write race.
        self._new_points: Dict[str, Dict[str, Any]] = {}
        self._rate_deltas: Dict[str, Dict[str, Any]] = {}
        self._load()

    @classmethod
    def for_cache(cls, cache) -> "CostBook":
        """The book that rides next to ``cache``: its ``costbook.json``
        sidecar when the cache persists to disk, in-memory otherwise."""
        sidecar = cache.sidecar_path(COSTBOOK_NAME) if cache is not None else None
        return cls(path=sidecar)

    # ------------------------------------------------------------------
    def _read_disk(self) -> Optional[Tuple[Dict[str, Any], Dict[str, Any]]]:
        """Parse the on-disk book; ``None`` when missing or corrupt (a
        corrupt file is counted, unlinked, and treated as empty)."""
        if self.path is None or not self.path.exists():
            return None
        try:
            payload = json.loads(self.path.read_text())
            if payload.get("schema") != COSTBOOK_SCHEMA:
                raise ValueError(f"costbook schema {payload.get('schema')!r}")
            points = payload["points"]
            rates = payload["rates"]
            if not isinstance(points, dict) or not isinstance(rates, dict):
                raise ValueError("costbook tables must be objects")
        except Exception:
            # A truncated write, stray bytes, or a stale schema: drop the
            # book and start empty — a counted miss, not a crash.
            self.stats.corrupt += 1
            try:
                self.path.unlink()
            except OSError:
                pass
            return None
        return points, rates

    def _load(self) -> None:
        disk = self._read_disk()
        if disk is not None:
            self.points, self.rates = disk

    def save(self) -> None:
        """Merge this book's new observations into the on-disk book and
        atomically persist the union (no-op in memory or when clean).

        The whole read-merge-write cycle runs under an exclusive
        ``fcntl`` lock on a ``.lock`` sidecar: the on-disk book is
        re-read, this process's observation deltas since the last save
        are applied on top (point observations overwrite — ours are the
        freshest for those exact points — and rate totals add), and the
        merge is swapped in with ``os.replace``.  Two concurrent sweeps
        therefore both land their updates; the old unconditional
        write-what-I-loaded behavior silently lost whichever writer
        finished first.
        """
        if self.path is None or not self._dirty:
            return
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        except OSError:
            return  # a read-only or vanished directory never fails a sweep
        with _book_lock(self.path):
            disk = self._read_disk()
            if disk is not None:
                points, rates = disk
                points.update(self._new_points)
                for key, delta in self._rate_deltas.items():
                    rate = rates.setdefault(
                        key,
                        {"units": 0.0, "events": 0, "wall_s": 0.0, "samples": 0},
                    )
                    rate["units"] = float(rate.get("units", 0.0)) + delta["units"]
                    rate["events"] = int(rate.get("events", 0)) + delta["events"]
                    rate["wall_s"] = float(rate.get("wall_s", 0.0)) + delta["wall_s"]
                    rate["samples"] = int(rate.get("samples", 0)) + delta["samples"]
                self.points = points
                self.rates = rates
            while len(self.points) > COSTBOOK_MAX_POINTS:
                self.points.pop(next(iter(self.points)))
            payload = {
                "schema": COSTBOOK_SCHEMA,
                "points": self.points,
                "rates": self.rates,
            }
            try:
                fd, tmp = tempfile.mkstemp(dir=self.path.parent, suffix=".tmp")
                try:
                    with os.fdopen(fd, "w") as handle:
                        json.dump(payload, handle, sort_keys=True)
                    os.replace(tmp, self.path)
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
            except OSError:
                return  # best-effort: leave deltas pending for a retry
        self._new_points.clear()
        self._rate_deltas.clear()
        self._dirty = False

    # ------------------------------------------------------------------
    @staticmethod
    def rate_key(job: SweepJob) -> str:
        return f"{job.spec.name}/{job.cfg.network_model}"

    def predict(self, job: SweepJob) -> CostPrediction:
        """Predicted wall seconds for ``job``, best knowledge first:
        observed wall of this exact point, else analytic units x learned
        rates, else defaults."""
        point = self.points.get(job.system.cache_key())
        if point and float(point.get("wall_s", 0.0)) > 0:
            self.stats.hits += 1
            return CostPrediction(
                wall_s=float(point["wall_s"]),
                source="observed",
                units=point.get("units"),
            )
        self.stats.misses += 1
        estimate = analytic_estimate(job)
        if estimate is None:
            return CostPrediction(wall_s=DEFAULT_WALL_S, source="default")
        rate = self.rates.get(self.rate_key(job))
        if (
            rate
            and float(rate.get("units", 0.0)) > 0
            and float(rate.get("wall_s", 0.0)) > 0
            and float(rate.get("events", 0.0)) > 0
        ):
            events_per_unit = float(rate["events"]) / float(rate["units"])
            events_per_sec = float(rate["events"]) / float(rate["wall_s"])
            source = "rate"
        else:
            events_per_unit = DEFAULT_EVENTS_PER_UNIT
            events_per_sec = DEFAULT_EVENTS_PER_SEC
            source = "default"
        wall = estimate.units * events_per_unit / events_per_sec
        return CostPrediction(wall_s=wall, source=source, units=estimate.units)

    def observe(
        self,
        job: SweepJob,
        telemetry: JobTelemetry,
        units: Optional[float] = None,
    ) -> None:
        """Feed one executed point's flight record back into the book."""
        if telemetry.source != "run" or telemetry.wall_s <= 0:
            return
        point = {
            "wall_s": round(telemetry.wall_s, 6),
            "events": telemetry.events,
            "units": units,
        }
        self.points[job.system.cache_key()] = point
        self._new_points[job.system.cache_key()] = point
        if units and units > 0 and telemetry.events > 0:
            for table in (self.rates, self._rate_deltas):
                rate = table.setdefault(
                    self.rate_key(job),
                    {"units": 0.0, "events": 0, "wall_s": 0.0, "samples": 0},
                )
                rate["units"] = float(rate["units"]) + units
                rate["events"] = int(rate["events"]) + telemetry.events
                rate["wall_s"] = float(rate["wall_s"]) + telemetry.wall_s
                rate["samples"] = int(rate["samples"]) + 1
        self.stats.observed += 1
        self._dirty = True


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


# ----------------------------------------------------------------------
# Prefilter (exploration sweeps only — see docs/performance.md)
# ----------------------------------------------------------------------
def prefilter_jobs(
    jobs: Sequence[SweepJob], ratio: float
) -> Tuple[List[int], List[Dict[str, Any]]]:
    """Split a sweep into (kept indices, pruned-point records).

    Points are grouped by workload name; within a group, a point whose
    analytic predicted runtime exceeds ``ratio`` x the group's best is
    dominated and pruned.  Points the analytic tier cannot estimate are
    always kept — uncertainty never silently discards a point.  Every
    pruned point gets a record (label, predicted runtime, the dominating
    point) for telemetry; callers must surface all of them.
    """
    if ratio <= 1.0:
        raise ConfigError(f"prefilter ratio must be > 1, got {ratio}")
    groups: Dict[str, List[int]] = {}
    for i, job in enumerate(jobs):
        groups.setdefault(job.workload.name, []).append(i)
    pruned: List[Dict[str, Any]] = []
    for indices in groups.values():
        scored = []
        for i in indices:
            estimate = analytic_estimate(jobs[i])
            if estimate is not None and estimate.total_ps > 0:
                scored.append((i, estimate.total_ps))
        if len(scored) < 2:
            continue
        best_i, best = min(scored, key=lambda pair: (pair[1], pair[0]))
        for i, total in scored:
            if total > ratio * best:
                pruned.append(
                    {
                        "index": i,
                        "label": jobs[i].label,
                        "predicted_total_us": round(total / 1e6, 3),
                        "best_label": jobs[best_i].label,
                        "best_total_us": round(best / 1e6, 3),
                        "ratio": round(total / best, 2),
                    }
                )
    pruned.sort(key=lambda p: p["index"])
    dropped = {p["index"] for p in pruned}
    keep = [i for i in range(len(jobs)) if i not in dropped]
    return keep, pruned


__all__ = [
    "SCHEDULES",
    "COSTBOOK_NAME",
    "COSTBOOK_SCHEMA",
    "AnalyticEstimate",
    "CostBook",
    "CostBookStats",
    "CostPrediction",
    "analytic_estimate",
    "lpt_order",
    "predict_costs",
    "prefilter_jobs",
]
