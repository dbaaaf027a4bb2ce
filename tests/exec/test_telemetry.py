"""Sweep-level telemetry: the per-job flight recorder, live progress
streaming, merged cross-worker traces, and the byte-identity guarantee
(figure rows are unchanged with telemetry on or off).

Pathological sweep points come from ``repro.workloads.diagnostics`` so
failure telemetry is exercised end to end rather than with mocks.
"""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.errors import SweepError
from repro.exec import (
    ResultCache,
    SweepExecutor,
    SweepJob,
    WorkloadRef,
    execute_job,
    process_cache_stats,
)
from repro.obs.telemetry import (
    JobTelemetry,
    JsonlProgress,
    ProgressListener,
    TtyProgress,
    flight_summary,
    make_progress,
    merge_trace_dir,
    merge_traces,
    runlog_path,
    write_runlog,
)
from repro.system.configs import get_spec

from tests.conftest import tiny_system_config

DIAG = "repro.workloads.diagnostics"


def _cfg(num_gpus=2):
    return tiny_system_config(num_gpus=num_gpus, num_sms=2)


def _ok_job(name="BP", tag=None) -> SweepJob:
    return SweepJob.make(get_spec("GMN"), WorkloadRef(name, 0.05), _cfg(), tag=tag)


def _crash_job(tag="crash-point") -> SweepJob:
    ref = WorkloadRef("crash", factory=f"{DIAG}:make_crash")
    return SweepJob.make(get_spec("GMN"), ref, _cfg(), tag=tag)


class _Recorder(ProgressListener):
    """Captures the raw event stream for structural assertions."""

    def __init__(self) -> None:
        self.events = []
        self.closed = False

    def emit(self, event) -> None:
        self.events.append(event)

    def close(self) -> None:
        self.closed = True

    def kinds(self):
        return [e["event"] for e in self.events]


# ----------------------------------------------------------------------
# Flight recorder: JobTelemetry out of execute_job
# ----------------------------------------------------------------------
def test_execute_job_telemetry_on_success():
    outcome = execute_job(_ok_job("BP", tag="bp-point"))
    t = outcome.telemetry
    assert outcome.ok and t is not None
    assert t.source == "run"
    assert t.label == "bp-point"
    assert t.wall_s > 0
    assert t.events == outcome.result.events_executed > 0
    assert t.peak_pending == outcome.result.peak_pending_events > 0
    assert t.worker_pid == os.getpid()
    assert t.events_per_sec > 0
    assert t.retries == 0


def test_execute_job_telemetry_on_failure():
    outcome = execute_job(_crash_job())
    t = outcome.telemetry
    assert not outcome.ok and t is not None
    assert t.source == "failed"
    assert t.wall_s > 0
    assert t.events == 0 and t.events_per_sec == 0.0
    # Satellite: the failure itself records how long the point ran.
    assert outcome.failure.wall_s is not None and outcome.failure.wall_s > 0
    assert "(after" in outcome.failure.summary()


def test_serial_packet_job_records_its_few_gc_collections():
    # The collector is paused for the point and runs once as it ends, so
    # a job records a handful of collections, not one per few hundred
    # allocations.
    job = SweepJob.make(get_spec("GMN"), WorkloadRef("BP", 0.25), _cfg(4))
    outcome = execute_job(job)
    assert outcome.ok
    assert outcome.result.events_executed > 10_000
    assert 1 <= outcome.telemetry.gc_collections < 5
    assert outcome.telemetry.to_record()["gc_collections"] == (
        outcome.telemetry.gc_collections
    )


def test_peak_pending_stays_out_of_rows():
    # The new engine counter is observational: it must never surface in
    # as_row(), which feeds the byte-identical figure tables.
    outcome = execute_job(_ok_job())
    assert "peak_pending" not in outcome.result.as_row()
    assert "peak_pending_events" not in outcome.result.as_row()


def test_cache_hit_telemetry_carries_provenance():
    cache = ResultCache()
    jobs = [_ok_job("BP")]
    first = SweepExecutor(jobs=1, cache=cache).map_outcomes(jobs)
    second = SweepExecutor(jobs=1, cache=cache).map_outcomes(jobs)
    ran, hit = first[0].telemetry, second[0].telemetry
    assert ran.source == "run" and hit.source == "cache"
    # Cache hits report the original run's event count but contribute no
    # throughput (nothing was simulated here).
    assert hit.events == ran.events > 0
    assert hit.peak_pending == ran.peak_pending
    assert hit.events_per_sec == 0.0
    assert hit.wall_s < ran.wall_s


# ----------------------------------------------------------------------
# flight_summary / RUNLOG persistence
# ----------------------------------------------------------------------
def _synthetic_telemetry():
    return [
        JobTelemetry("a", source="run", wall_s=2.0, events=1000,
                     peak_pending=50, worker_pid=11),
        JobTelemetry("b", source="run", wall_s=4.0, events=2000,
                     peak_pending=80, worker_pid=12, retries=1),
        JobTelemetry("c", source="cache", wall_s=0.001, events=500,
                     peak_pending=40, worker_pid=11),
        JobTelemetry("d", source="failed", wall_s=0.5, worker_pid=12),
    ]


def test_flight_summary_aggregates():
    from repro.exec import CacheStats
    from repro.exec.jobs import JobFailure

    failures = [JobFailure("d", "RuntimeError", "boom", "tb", wall_s=0.5)]
    stats = CacheStats(hits=1, misses=3, stores=3)
    summary = flight_summary(_synthetic_telemetry(), failures, stats)
    assert summary["jobs"] == 4
    assert summary["ran"] == 2 and summary["cached"] == 1 and summary["failed"] == 1
    assert summary["retried"] == 1
    assert summary["events"] == 3000  # cache hits excluded
    assert summary["sim_wall_s"] == 6.0
    assert summary["events_per_sec"] == 500.0
    assert summary["peak_pending"] == 80
    assert summary["workers"] == [11, 12]
    assert summary["slowest"] == {"label": "b", "wall_s": 4.0}
    assert summary["slowest_failure_s"] == 0.5
    assert summary["cache"] == {
        "hits": 1, "misses": 3, "stores": 3, "corrupt": 0, "evicted": 0
    }


def test_write_runlog_jsonl(tmp_path):
    path = runlog_path(str(tmp_path), "fig14")
    assert path.name == "RUNLOG_fig14.jsonl"
    write_runlog(str(path), "fig14", _synthetic_telemetry())
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["record"] for r in records] == ["job"] * 4 + ["summary"]
    assert records[0]["label"] == "a" and records[0]["events_per_sec"] == 500.0
    assert records[-1]["experiment"] == "fig14"


def test_write_runlog_empty_sweep_still_self_describes(tmp_path):
    path = write_runlog(str(tmp_path / "RUNLOG_fig12.jsonl"), "fig12", [])
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == 1
    assert records[0]["record"] == "summary" and records[0]["jobs"] == 0


def test_experiment_result_collects_telemetry():
    from repro.experiments import fig14_organizations

    result = fig14_organizations.run(scale=0.05, workloads=("VEC",), cfg=_cfg())
    assert len(result.telemetry) == len(result.rows)
    assert all(t.source == "run" for t in result.telemetry)
    summary = result.flight_summary()
    assert summary["ran"] == len(result.rows) and summary["failed"] == 0


# ----------------------------------------------------------------------
# Progress streaming
# ----------------------------------------------------------------------
def test_progress_event_ordering_serial():
    recorder = _Recorder()
    jobs = [_ok_job("BP"), _ok_job("KMN")]
    SweepExecutor(jobs=1, progress=recorder).map_outcomes(jobs)
    kinds = recorder.kinds()
    assert kinds[0] == "begin" and kinds[-1] == "end"
    assert recorder.events[0]["total"] == 2
    # Per job: submitted, then started, then completed — in index order.
    for i in range(2):
        seq = [k for k, e in zip(kinds, recorder.events) if e.get("index") == i]
        assert seq == ["submitted", "started", "completed"]
    # Every event is stamped with seconds-since-begin, monotonically.
    ts = [e["t"] for e in recorder.events]
    assert ts == sorted(ts) and ts[0] == 0.0
    done = [e for e in recorder.events if e["event"] == "completed"]
    assert all(e["wall_s"] > 0 and e["events"] > 0 for e in done)
    assert recorder.events[-1] == {
        "event": "end", "total": 2, "cached": 0, "failed": 0,
        "t": recorder.events[-1]["t"],
    }


def test_progress_cache_hits_short_circuit():
    cache = ResultCache()
    jobs = [_ok_job("BP")]
    SweepExecutor(jobs=1, cache=cache).map_outcomes(jobs)
    recorder = _Recorder()
    SweepExecutor(jobs=1, cache=cache, progress=recorder).map_outcomes(jobs)
    assert recorder.kinds() == ["begin", "cached", "end"]
    assert recorder.events[-1]["cached"] == 1


def test_progress_failed_event_keep_going():
    recorder = _Recorder()
    executor = SweepExecutor(jobs=1, keep_going=True, progress=recorder)
    executor.map_outcomes([_crash_job()])
    failed = [e for e in recorder.events if e["event"] == "failed"]
    assert len(failed) == 1
    assert failed[0]["exc_type"] == "RuntimeError"
    assert failed[0]["wall_s"] > 0
    assert recorder.events[-1]["failed"] == 1


def test_progress_closed_before_fail_fast_raise():
    recorder = _Recorder()
    with pytest.raises(SweepError):
        SweepExecutor(jobs=1, progress=recorder).map_outcomes([_crash_job()])
    assert recorder.closed


def test_jsonl_progress_is_line_parseable():
    stream = io.StringIO()
    SweepExecutor(jobs=1, progress=JsonlProgress(stream)).map_outcomes(
        [_ok_job("BP")]
    )
    lines = stream.getvalue().splitlines()
    events = [json.loads(line) for line in lines]
    assert [e["event"] for e in events] == [
        "begin", "submitted", "started", "completed", "end",
    ]


def test_tty_progress_renders_and_closes():
    stream = io.StringIO()
    tty = TtyProgress(stream)
    tty.emit({"event": "begin", "total": 2, "t": 0.0})
    tty.emit({"event": "completed", "index": 0, "t": 0.5})
    tty.emit({"event": "cached", "index": 1, "t": 0.6})
    tty.emit({"event": "end", "total": 2, "cached": 1, "failed": 0, "t": 0.7})
    out = stream.getvalue()
    assert "1/2 jobs" in out and "2/2 jobs" in out
    assert "1 cached" in out
    assert out.endswith("\n")
    # A partial line left open (fail-fast path) is finished by close().
    stream2 = io.StringIO()
    tty2 = TtyProgress(stream2)
    tty2.emit({"event": "begin", "total": 2, "t": 0.0})
    tty2.close()
    assert stream2.getvalue().endswith("\n")


def test_make_progress_modes():
    stream = io.StringIO()  # isatty() is False
    assert make_progress(None) is None
    assert make_progress("none") is None
    assert isinstance(make_progress("jsonl", stream), JsonlProgress)
    assert isinstance(make_progress("tty", stream), TtyProgress)
    assert make_progress("auto", stream) is None
    with pytest.raises(ValueError, match="unknown progress mode"):
        make_progress("fancy")


# ----------------------------------------------------------------------
# Cross-worker trace merging
# ----------------------------------------------------------------------
def test_parallel_trace_merges_with_unique_tids(tmp_path):
    trace_dir = tmp_path / "traces"
    trace_dir.mkdir()
    jobs = [_ok_job("BP"), _ok_job("KMN"), _ok_job("VEC")]
    outcomes = SweepExecutor(jobs=2, trace_dir=str(trace_dir)).map_outcomes(jobs)
    assert all(o.ok for o in outcomes)
    out = tmp_path / "merged.json"
    info = merge_trace_dir(str(trace_dir), str(out))
    assert info["files"] == 3
    assert 1 <= info["workers"] <= 2
    merged = json.loads(out.read_text())
    events = merged["traceEvents"]
    # One trace process per worker pid...
    procs = [e for e in events if e.get("ph") == "M" and e["name"] == "process_name"]
    assert {p["args"]["name"] for p in procs} == {
        f"worker {p['pid']}" for p in procs
    }
    # ...and globally unique thread ids, each named after its job.
    lanes = [e for e in events if e.get("ph") == "M" and e["name"] == "thread_name"]
    tids = [e["tid"] for e in lanes]
    assert len(tids) == len(set(tids))
    lane_names = " ".join(e["args"]["name"] for e in lanes)
    for job in jobs:
        assert job.label in lane_names
    # Every payload event was remapped onto a declared lane.
    declared = {(e["pid"], e["tid"]) for e in lanes}
    payload = [e for e in events if e.get("ph") != "M"]
    assert payload and all((e["pid"], e["tid"]) in declared for e in payload)


def test_serial_sweep_also_writes_job_traces(tmp_path):
    trace_dir = tmp_path / "traces"
    trace_dir.mkdir()
    SweepExecutor(jobs=1, trace_dir=str(trace_dir)).map_outcomes([_ok_job("BP")])
    files = list(trace_dir.glob("trace_*.json"))
    assert len(files) == 1
    payload = json.loads(files[0].read_text())
    assert payload["workerPid"] == os.getpid()
    assert payload["jobLabel"] == "BP@GMN"
    assert payload["traceEvents"]


def test_merge_traces_empty_is_valid(tmp_path):
    out = tmp_path / "merged.json"
    info = merge_traces([], str(out))
    assert info == {"files": 0, "events": 0, "workers": 0, "path": str(out)}
    assert json.loads(out.read_text())["traceEvents"] == []


# ----------------------------------------------------------------------
# Byte identity: telemetry must never perturb the science
# ----------------------------------------------------------------------
def _with_full_telemetry(tmp_path, run_fn):
    return run_fn(
        SweepExecutor(
            jobs=2,
            progress=JsonlProgress(io.StringIO()),
            trace_dir=str(tmp_path),
        )
    )


def test_fig14_rows_identical_with_telemetry(tmp_path):
    from repro.experiments import fig14_organizations

    def run_fn(executor=None):
        return fig14_organizations.run(
            scale=0.05, workloads=("VEC", "BP"), cfg=_cfg(), executor=executor
        )

    instrumented = _with_full_telemetry(tmp_path, run_fn)
    plain = run_fn()
    assert instrumented.rows == plain.rows
    assert instrumented.notes == plain.notes
    assert list(tmp_path.glob("trace_*.json"))  # tracing really happened


def test_fig07_rows_identical_with_telemetry(tmp_path):
    from repro.experiments import fig07_remote_access

    def run_fn(executor=None):
        return fig07_remote_access.run(
            num_ctas=16, lines_per_cta=4, cfg=_cfg(num_gpus=4), executor=executor
        )

    instrumented = _with_full_telemetry(tmp_path, run_fn)
    plain = run_fn()
    assert instrumented.rows == plain.rows
    assert instrumented.notes == plain.notes


# ----------------------------------------------------------------------
# Cache stats accumulate across instances (flight-recorder provenance)
# ----------------------------------------------------------------------
def test_process_cache_stats_survive_instance_replacement(tmp_path):
    before = process_cache_stats()
    snapshot = (before.hits, before.misses, before.stores)
    jobs = [_ok_job("BP")]
    first = ResultCache(str(tmp_path / "c"))
    SweepExecutor(jobs=1, cache=first).map_outcomes(jobs)
    # A brand-new instance over the same directory: its own stats start
    # from zero, but the process accumulator keeps the history.
    second = ResultCache(str(tmp_path / "c"))
    SweepExecutor(jobs=1, cache=second).map_outcomes(jobs)
    assert second.stats.hits == 1 and second.stats.misses == 0
    after = process_cache_stats()
    assert after.hits >= snapshot[0] + 1
    assert after.misses >= snapshot[1] + 1
    assert after.stores >= snapshot[2] + 1
