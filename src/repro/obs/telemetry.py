"""Sweep-level telemetry: flight recorder, progress streaming, trace merge.

PR 1's observability covers one in-process run; once
:class:`~repro.exec.executor.SweepExecutor` fans a sweep over a process
pool, that single-run machinery goes dark — workers cannot share a tracer
and the parent sees nothing between submission and merge.  This module is
the sweep-level counterpart, three cooperating pieces:

- **Flight recorder** — every :func:`~repro.exec.jobs.execute_job` call
  produces a picklable :class:`JobTelemetry` record (wall time, events
  executed, events/sec, peak pending-event count, cache provenance, pool
  retry count, worker pid) that rides back on the
  :class:`~repro.exec.jobs.JobOutcome`.  :func:`flight_summary`
  aggregates a sweep's records and :func:`write_runlog` persists them as
  a ``RUNLOG_<experiment>.jsonl`` artifact (one JSON record per job, one
  trailing summary record).

- **Progress streaming** — the executor narrates job state transitions
  (``begin``/``submitted``/``cached``/``started``/``completed``/
  ``failed``/``retried``/``end``) to a :class:`ProgressListener`.
  :class:`TtyProgress` renders a live one-line progress bar with an ETA
  from completed-job rates; :class:`JsonlProgress` emits one JSON object
  per event on stderr — the machine-readable wire format a future
  ``repro serve`` daemon streams to clients.

- **Merged cross-worker traces** — pool workers cannot append to the
  parent's :class:`~repro.obs.tracer.ChromeTracer`, so each traced job
  dumps its own Chrome trace file (:func:`write_worker_trace`) and the
  parent folds them into a single Perfetto-loadable timeline
  (:func:`merge_traces`): one trace *process* per worker pid, one unique
  *thread* lane per (job, original tid), so a whole sweep is inspectable
  in one ``chrome://tracing`` window.

Telemetry is observational by construction: none of it enters the spec
canonical form or the cache key (like the PR-5 watchdog knobs), so figure
rows stay byte-identical with telemetry on or off.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, TextIO

#: Bump when the RUNLOG / progress-event JSON layouts change shape.
#: 2: jobs gained ``predicted_wall_s`` and the ``pruned`` source; the
#: summary gained ``pruned``, ``prediction``, and ``pool_spawns``.
#: 3: the summary's ``cache`` section gained ``evicted`` (size-cap LRU
#: eviction counts; see docs/serving.md).
TELEMETRY_SCHEMA = 3

#: Job state transitions a sweep can emit, in lifecycle order.
#: ``planned`` fires once per sweep, after submission under the LPT
#: schedule, carrying the predicted aggregate wall time.
PROGRESS_EVENTS = (
    "begin",
    "submitted",
    "cached",
    "planned",
    "started",
    "completed",
    "failed",
    "retried",
    "end",
)


# ---------------------------------------------------------------------------
# Per-job flight-recorder records
# ---------------------------------------------------------------------------
@dataclass
class JobTelemetry:
    """How one sweep job executed (never *what* it computed).

    Produced inside :func:`~repro.exec.jobs.execute_job` (``source:
    "run"``/``"failed"``) or by the executor's cache short-circuit
    (``source: "cache"``); the executor annotates ``retries`` when the
    job had to be resubmitted after a pool death.  Plain picklable data,
    excluded from outcome equality and from every cache key.
    """

    label: str
    #: ``"run"`` (simulated here), ``"analytic"`` (predicted by the
    #: capacity model — no event engine ran), ``"cache"`` (served from
    #: the ResultCache), ``"pruned"`` (skipped by ``--prefilter`` — never
    #: executed), or ``"failed"``.
    source: str = "run"
    wall_s: float = 0.0
    #: Simulation events executed by this job's engine.  For cache hits
    #: this reports the *original* run's count (carried on the cached
    #: RunResult); failures report 0.
    events: int = 0
    #: High-water mark of the engine's pending-event heap.
    peak_pending: int = 0
    worker_pid: int = 0
    #: Times this job was resubmitted after a worker-pool death.
    retries: int = 0
    #: The scheduler's predicted wall time (LPT planning), stamped by the
    #: executor when a planned job lands; ``None`` when unplanned (FIFO,
    #: serial, cache hit).
    predicted_wall_s: Optional[float] = None

    @property
    def events_per_sec(self) -> float:
        """Simulation throughput; 0 when nothing was simulated here."""
        if self.source != "run" or self.wall_s <= 0:
            return 0.0
        return self.events / self.wall_s

    def to_record(self) -> Dict[str, Any]:
        """One RUNLOG line (``record: "job"``)."""
        record = {
            "record": "job",
            "label": self.label,
            "source": self.source,
            "wall_s": round(self.wall_s, 6),
            "events": self.events,
            "events_per_sec": round(self.events_per_sec, 1),
            "peak_pending": self.peak_pending,
            "worker_pid": self.worker_pid,
            "retries": self.retries,
        }
        if self.predicted_wall_s is not None:
            record["predicted_wall_s"] = round(self.predicted_wall_s, 6)
        return record


def flight_summary(
    telemetry: Sequence[JobTelemetry],
    failures: Sequence[Any] = (),
    cache_stats: Optional[Any] = None,
    pool_spawns: Optional[int] = None,
) -> Dict[str, Any]:
    """Aggregate a sweep's :class:`JobTelemetry` records into one dict.

    ``failures`` is the sweep's :class:`~repro.exec.jobs.JobFailure`
    list (for the slowest-failure highlight); ``cache_stats`` a
    :class:`~repro.exec.cache.CacheStats` (hit/miss/store/corrupt counts
    accumulated across cache instances and pool respawns);
    ``pool_spawns`` the process-lifetime worker-pool spawn count
    (:func:`repro.exec.pool_spawns` — 1 for a whole warm-pool run).
    """
    ran = [t for t in telemetry if t.source == "run"]
    analytic = [t for t in telemetry if t.source == "analytic"]
    cached = [t for t in telemetry if t.source == "cache"]
    failed = [t for t in telemetry if t.source == "failed"]
    pruned = [t for t in telemetry if t.source == "pruned"]
    sim_wall = sum(t.wall_s for t in ran)
    events = sum(t.events for t in ran)
    summary: Dict[str, Any] = {
        "record": "summary",
        "schema": TELEMETRY_SCHEMA,
        "jobs": len(telemetry),
        "ran": len(ran),
        "analytic": len(analytic),
        "cached": len(cached),
        "failed": len(failed),
        "pruned": len(pruned),
        "retried": sum(1 for t in telemetry if t.retries),
        "events": events,
        "sim_wall_s": round(sim_wall, 4),
        "events_per_sec": round(events / sim_wall, 1) if sim_wall > 0 else 0.0,
        "peak_pending": max((t.peak_pending for t in telemetry), default=0),
        "workers": sorted({t.worker_pid for t in telemetry if t.worker_pid}),
    }
    predicted = [
        t for t in ran if t.predicted_wall_s and t.wall_s > 0
    ]
    if predicted:
        # Geomean of actual/predicted: 1.0 is a perfect CostBook, the
        # ratio's distance from 1 is the planner's current bias.
        log_sum = sum(
            math.log(t.wall_s / t.predicted_wall_s) for t in predicted
        )
        summary["prediction"] = {
            "jobs": len(predicted),
            "geomean_actual_over_predicted": round(
                math.exp(log_sum / len(predicted)), 3
            ),
        }
    if pool_spawns is not None:
        summary["pool_spawns"] = pool_spawns
    if ran:
        slowest = max(ran, key=lambda t: t.wall_s)
        summary["slowest"] = {
            "label": slowest.label,
            "wall_s": round(slowest.wall_s, 4),
        }
    failure_walls = [
        f.wall_s for f in failures if getattr(f, "wall_s", None) is not None
    ]
    if failure_walls:
        summary["slowest_failure_s"] = round(max(failure_walls), 4)
    if cache_stats is not None:
        summary["cache"] = {
            "hits": cache_stats.hits,
            "misses": cache_stats.misses,
            "stores": cache_stats.stores,
            "corrupt": cache_stats.corrupt,
            "evicted": getattr(cache_stats, "evicted", 0),
        }
    return summary


def write_runlog(
    path: str,
    experiment: str,
    telemetry: Sequence[JobTelemetry],
    failures: Sequence[Any] = (),
    cache_stats: Optional[Any] = None,
    pool_spawns: Optional[int] = None,
    **fields: Any,
) -> Path:
    """Persist a sweep's flight recorder as ``RUNLOG`` JSONL.

    One ``{"record": "job", ...}`` line per job in submission order,
    then one trailing ``{"record": "summary", ...}`` line (always
    written, even for an empty sweep, so the file self-describes).
    ``fields`` (the CLI passes the invocation's ``wall_s``, ``rows``,
    ``fidelity``, ``schedule`` and ``code_version``) join the summary.
    """
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    summary = flight_summary(telemetry, failures, cache_stats, pool_spawns)
    summary["experiment"] = experiment
    summary.update(fields)
    with open(out, "w") as handle:
        for t in telemetry:
            handle.write(json.dumps(t.to_record(), sort_keys=True) + "\n")
        handle.write(json.dumps(summary, sort_keys=True) + "\n")
    return out


def runlog_path(directory: str, experiment: str) -> Path:
    """Canonical ``RUNLOG_<experiment>.jsonl`` location under ``directory``."""
    return Path(directory) / f"RUNLOG_{experiment}.jsonl"


# ---------------------------------------------------------------------------
# Live progress streaming
# ---------------------------------------------------------------------------
class ProgressListener:
    """Receives one dict per sweep state transition; base class ignores.

    Event keys: ``event`` (one of :data:`PROGRESS_EVENTS`), plus
    ``label``/``index`` for per-job events, ``total``/``pending`` on
    ``begin``, timing/throughput fields on ``completed``, failure fields
    on ``failed``, and counters on ``end``.  Every event carries ``t``,
    seconds since the listener saw ``begin`` (wall clock).
    """

    def emit(self, event: Dict[str, Any]) -> None:  # pragma: no cover
        pass

    def close(self) -> None:
        """Flush any partial output (called before a fail-fast raise)."""


class JsonlProgress(ProgressListener):
    """Machine-readable stream: one JSON object per line.

    This is the wire format the planned ``repro serve`` daemon
    (ROADMAP item 1) streams to clients; the CLI points it at stderr so
    row output on stdout stays parseable.
    """

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr

    def emit(self, event: Dict[str, Any]) -> None:
        self.stream.write(json.dumps(event, sort_keys=True) + "\n")
        self.stream.flush()


class TtyProgress(ProgressListener):
    """A live single-line progress display with an ETA.

    The ETA extrapolates from the mean wall time of jobs *completed this
    sweep* (cache hits are excluded from the rate — they are ~free and
    would make the estimate wildly optimistic).
    """

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._reset(total=0)
        self._open_line = False

    def _reset(self, total: int) -> None:
        self.total = total
        self.done = 0
        self.cached = 0
        self.failed = 0
        self.ran = 0
        self.started_at = time.monotonic()

    def emit(self, event: Dict[str, Any]) -> None:
        kind = event["event"]
        if kind == "begin":
            self._reset(total=event.get("total", 0))
        elif kind == "cached":
            self.done += 1
            self.cached += 1
        elif kind == "completed":
            self.done += 1
            self.ran += 1
        elif kind == "failed":
            self.done += 1
            self.ran += 1
            self.failed += 1
        if kind == "end":
            self._render(final=True)
        elif kind in ("begin", "cached", "completed", "failed"):
            self._render(final=False)

    def _render(self, final: bool) -> None:
        parts = [f"{self.done}/{self.total} jobs"]
        if self.cached:
            parts.append(f"{self.cached} cached")
        if self.failed:
            parts.append(f"{self.failed} FAILED")
        elapsed = time.monotonic() - self.started_at
        remaining = self.total - self.done
        if not final and self.ran and remaining > 0 and elapsed > 0:
            rate = self.ran / elapsed
            parts.append(f"{rate:.1f} jobs/s")
            parts.append(f"eta {remaining / rate:.0f}s")
        elif final:
            parts.append(f"{elapsed:.1f}s")
        line = "[sweep] " + ", ".join(parts)
        # Pad so a shrinking line never leaves stale characters behind.
        self.stream.write("\r" + line.ljust(60))
        if final:
            self.stream.write("\n")
            self._open_line = False
        else:
            self._open_line = True
        self.stream.flush()

    def close(self) -> None:
        if self._open_line:
            self.stream.write("\n")
            self.stream.flush()
            self._open_line = False


def make_progress(
    mode: Optional[str], stream: Optional[TextIO] = None
) -> Optional[ProgressListener]:
    """Build the listener a CLI ``--progress`` mode asks for.

    ``auto`` (the default) streams a TTY progress line when stderr is a
    terminal and stays silent otherwise — scripts and CI logs are not
    spammed with carriage returns.
    """
    stream = stream if stream is not None else sys.stderr
    if mode in (None, "none"):
        return None
    if mode == "jsonl":
        return JsonlProgress(stream)
    if mode == "tty":
        return TtyProgress(stream)
    if mode == "auto":
        return TtyProgress(stream) if stream.isatty() else None
    raise ValueError(f"unknown progress mode {mode!r} (auto/tty/jsonl/none)")


# ---------------------------------------------------------------------------
# Cross-worker trace merging
# ---------------------------------------------------------------------------
_LABEL_SANITIZER = re.compile(r"[^A-Za-z0-9_.@-]+")
_trace_seq = 0


def write_worker_trace(tracer, trace_dir: str, label: str) -> Path:
    """Dump one job's Chrome trace into the sweep's trace directory.

    The filename carries the worker pid and a per-process sequence
    number, so two jobs — even identically labelled ones on the same
    worker — never collide; the payload additionally records the pid and
    label for :func:`merge_traces`.
    """
    global _trace_seq
    _trace_seq += 1
    pid = os.getpid()
    safe = _LABEL_SANITIZER.sub("_", label) or "job"
    out = Path(trace_dir) / f"trace_{pid}_{_trace_seq:04d}_{safe}.json"
    payload = tracer.to_dict()
    payload["workerPid"] = pid
    payload["jobLabel"] = label
    with open(out, "w") as handle:
        json.dump(payload, handle)
    return out


def merge_traces(paths: Iterable[str], out_path: str) -> Dict[str, Any]:
    """Fold per-job worker traces into one Perfetto-loadable timeline.

    Mapping: each worker *pid* becomes one trace process (named
    ``worker <pid>``); each (job, original tid) pair becomes one trace
    thread with a **globally unique** integer tid, named after the job's
    label (suffixed with the original lane for multi-lane jobs, e.g.
    ``BP@UMN [memcpy]``).  Original per-file ``process_name`` metadata is
    dropped in favor of the worker lanes; all timestamps are simulated
    time and therefore start at 0 in every lane.

    Returns ``{"files", "events", "workers", "path"}``.
    """
    events: List[Dict[str, Any]] = []
    worker_pids: List[int] = []
    next_tid = 1
    files = 0
    for path in sorted(str(p) for p in paths):
        with open(path) as handle:
            payload = json.load(handle)
        files += 1
        worker_pid = int(payload.get("workerPid", 0))
        label = payload.get("jobLabel", Path(path).stem)
        if worker_pid not in worker_pids:
            worker_pids.append(worker_pid)
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": worker_pid,
                    "tid": 0,
                    "args": {"name": f"worker {worker_pid}"},
                }
            )
        tid_map: Dict[Any, int] = {}
        for event in payload.get("traceEvents", ()):
            if event.get("ph") == "M" and event.get("name") == "process_name":
                continue  # superseded by the worker lane above
            orig_tid = event.get("tid", 0)
            tid = tid_map.get(orig_tid)
            if tid is None:
                tid = next_tid
                next_tid += 1
                tid_map[orig_tid] = tid
                lane = label if orig_tid in ("sim", 0) else f"{label} [{orig_tid}]"
                events.append(
                    {
                        "ph": "M",
                        "name": "thread_name",
                        "pid": worker_pid,
                        "tid": tid,
                        "args": {"name": lane},
                    }
                )
            merged = dict(event)
            merged["pid"] = worker_pid
            merged["tid"] = tid
            events.append(merged)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, handle)
    return {
        "files": files,
        "events": len(events),
        "workers": len(worker_pids),
        "path": str(out),
    }


def merge_trace_dir(trace_dir: str, out_path: str) -> Dict[str, Any]:
    """Merge every per-job trace under ``trace_dir`` into ``out_path``."""
    return merge_traces(
        (str(p) for p in Path(trace_dir).glob("trace_*.json")), out_path
    )


__all__ = [
    "JobTelemetry",
    "JsonlProgress",
    "PROGRESS_EVENTS",
    "ProgressListener",
    "TELEMETRY_SCHEMA",
    "TtyProgress",
    "flight_summary",
    "make_progress",
    "merge_trace_dir",
    "merge_traces",
    "runlog_path",
    "write_runlog",
    "write_worker_trace",
]
