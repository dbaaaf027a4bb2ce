"""Failure isolation in the sweep executor: fail-fast, keep-going,
salvage, worker-pool death, and the completeness assertion.

The pathological sweep points come from ``repro.workloads.diagnostics``
(a crashing build, a livelocked kernel, a worker that kills itself), so
every path here is exercised end to end rather than with mocks.
"""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import Future

import pytest

from repro.errors import SweepError
from repro.exec import (
    ResultCache,
    SweepExecutor,
    SweepJob,
    WorkloadRef,
    execute_job,
    shutdown_pool,
)
from repro.exec import executor as executor_module
from repro.exec.executor import Dispatcher
from repro.system.configs import get_spec

from tests.conftest import tiny_system_config

DIAG = "repro.workloads.diagnostics"


def _cfg():
    return tiny_system_config(num_gpus=2, num_sms=2)


def _ok_job(name="BP", tag=None) -> SweepJob:
    return SweepJob.make(get_spec("GMN"), WorkloadRef(name, 0.05), _cfg(), tag=tag)


def _crash_job(tag="crash-point") -> SweepJob:
    ref = WorkloadRef("crash", factory=f"{DIAG}:make_crash")
    return SweepJob.make(get_spec("GMN"), ref, _cfg(), tag=tag)


def _livelock_job(tag="livelock-point") -> SweepJob:
    ref = WorkloadRef("livelock", factory=f"{DIAG}:make_livelock")
    cfg = dataclasses.replace(_cfg(), watchdog_max_events=20_000)
    return SweepJob.make(get_spec("GMN"), ref, cfg, tag=tag)


def _kill_job(sentinel=None, tag="kill-point") -> SweepJob:
    kwargs = (("sentinel", str(sentinel)),) if sentinel else ()
    ref = WorkloadRef("killworker", factory=f"{DIAG}:make_kill_worker", kwargs=kwargs)
    return SweepJob.make(get_spec("GMN"), ref, _cfg(), tag=tag)


# ----------------------------------------------------------------------
# execute_job: failure as data
# ----------------------------------------------------------------------
def test_execute_job_captures_crash():
    outcome = execute_job(_crash_job())
    assert not outcome.ok
    assert outcome.failure.label == "crash-point"
    assert outcome.failure.exc_type == "RuntimeError"
    assert "injected diagnostic failure" in outcome.failure.message
    assert "make_crash" in outcome.failure.traceback


def test_execute_job_captures_watchdog_trip():
    outcome = execute_job(_livelock_job())
    assert not outcome.ok
    assert outcome.failure.exc_type == "SimulationError"
    assert "watchdog" in outcome.failure.message


def test_outcome_carries_exactly_one_side():
    from repro.exec import JobFailure, JobOutcome

    failure = JobFailure("x", "E", "m", "tb")
    with pytest.raises(ValueError):
        JobOutcome()
    with pytest.raises(ValueError):
        JobOutcome(result=object(), failure=failure)


# ----------------------------------------------------------------------
# Fail-fast (the default)
# ----------------------------------------------------------------------
def test_fail_fast_serial_names_label_and_salvages():
    cache = ResultCache()
    jobs = [_ok_job("BP"), _crash_job(), _ok_job("KMN")]
    with pytest.raises(SweepError, match="'crash-point'") as excinfo:
        SweepExecutor(jobs=1, cache=cache).map(jobs)
    assert excinfo.value.failures[0].label == "crash-point"
    assert "salvaged" in str(excinfo.value)
    # The point that finished before the crash reached the cache.
    assert cache.stats.stores == 1
    assert cache.get(jobs[0]) is not None


def test_fail_fast_parallel_salvages_completed_points():
    cache = ResultCache()
    jobs = [_ok_job("BP"), _ok_job("KMN"), _crash_job()]
    # fifo hands the healthy points to the pool before the crash point.
    # Under lpt the crash point goes first, and when it lands before the
    # next submission, fail-fast never submits the healthy ones.
    with pytest.raises(SweepError, match="crash-point"):
        SweepExecutor(jobs=2, cache=cache, schedule="fifo").map(jobs)
    # Healthy points that completed were cached before the raise; a rerun
    # of the same sweep therefore recomputes at most the crashed point.
    assert cache.stats.stores >= 1


# ----------------------------------------------------------------------
# Keep-going
# ----------------------------------------------------------------------
def _check_keep_going(executor: SweepExecutor, cache: ResultCache) -> None:
    jobs = [_ok_job("BP"), _crash_job(), _livelock_job(), _ok_job("KMN")]
    outcomes = executor.map_outcomes(jobs)
    assert [o.ok for o in outcomes] == [True, False, False, True]
    failed = {o.failure.label for o in outcomes if not o.ok}
    assert failed == {"crash-point", "livelock-point"}
    # Every healthy row is present and cached.
    assert cache.stats.stores == 2
    assert cache.get(jobs[0]) is not None and cache.get(jobs[3]) is not None
    # map() mirrors the outcomes with None holes for the failures.
    results = executor.map(jobs)
    assert results[1] is None and results[2] is None
    assert results[0] is not None and results[3] is not None


def test_keep_going_serial_finishes_past_failures():
    cache = ResultCache()
    _check_keep_going(SweepExecutor(jobs=1, cache=cache, keep_going=True), cache)


def test_keep_going_parallel_finishes_past_failures():
    cache = ResultCache()
    _check_keep_going(SweepExecutor(jobs=2, cache=cache, keep_going=True), cache)


# ----------------------------------------------------------------------
# BrokenProcessPool: respawn and resubmit
# ----------------------------------------------------------------------
def test_broken_pool_respawns_and_resubmits(tmp_path, capsys):
    sentinel = tmp_path / "killed-once"
    jobs = [_ok_job("BP"), _kill_job(sentinel), _ok_job("KMN")]
    executor = SweepExecutor(jobs=2, pool_retries=2, pool_backoff_s=0.01)
    outcomes = executor.map_outcomes(jobs)
    # The worker died once (sentinel written), the pool was respawned, and
    # the resubmitted job succeeded on the retry.
    assert sentinel.exists()
    assert all(o is not None and o.ok for o in outcomes)
    assert outcomes[1].telemetry.retries == 1
    assert "respawning" in capsys.readouterr().err


def test_broken_pool_retries_are_bounded(tmp_path):
    jobs = [_kill_job(tag="kill-forever")]
    # A single pending job runs serially, so force the pool with a healthy
    # sibling.
    jobs.append(_ok_job("BP"))
    executor = SweepExecutor(jobs=2, pool_retries=1, pool_backoff_s=0.01)
    with pytest.raises(SweepError, match="worker pool died") as excinfo:
        executor.map_outcomes(jobs)
    assert "kill-forever" in str(excinfo.value)


class _JobAbort(BaseException):
    """Not an ``Exception``: it escapes ``execute_job``'s capture, so the
    pool hands it back raw, as it would a ``SystemExit`` in a job."""


def _abort_tagged_job(job, obs=None):
    if job.label == "abort-point":
        raise _JobAbort("job aborted")
    return execute_job(job, obs=obs)


def test_pool_job_base_exception_is_a_failed_outcome(monkeypatch):
    # Patch before the pool forks, so its workers run the patched job.
    shutdown_pool()
    monkeypatch.setattr(executor_module, "execute_job", _abort_tagged_job)
    jobs = [_ok_job("BP", tag="abort-point"), _ok_job("KMN")]
    executor = SweepExecutor(jobs=2, keep_going=True)
    outcomes = []
    sweep = threading.Thread(
        target=lambda: outcomes.extend(executor.map_outcomes(jobs)), daemon=True
    )
    try:
        sweep.start()
        sweep.join(timeout=60)
        assert not sweep.is_alive(), "a BaseException left its submission unresolved"
    finally:
        # Killed, not drained: an escaped BaseException ends the pool's
        # manager thread, and workers nobody stops would hang the exit.
        shutdown_pool(kill=True)
    assert not outcomes[0].ok
    assert outcomes[0].failure.exc_type == "_JobAbort"
    assert outcomes[0].failure.label == "abort-point"
    assert outcomes[1].ok


# ----------------------------------------------------------------------
# Completeness assertion
# ----------------------------------------------------------------------
def test_lost_outcome_is_loud(monkeypatch):
    def lose(self, job, run, on_retry=None):
        future = Future()
        future.cancel()
        return future

    monkeypatch.setattr(Dispatcher, "submit", lose)
    with pytest.raises(SweepError, match="lost 2 job"):
        SweepExecutor(jobs=1).map_outcomes([_ok_job("BP"), _ok_job("KMN")])
