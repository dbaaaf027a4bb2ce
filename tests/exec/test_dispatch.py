"""The dispatch core shared by the batch executor and the serve daemon:
the warm pool's discard rule, the salvage-store error policy, and
pulling back a job no worker has started."""

from __future__ import annotations

import errno
import time
from concurrent.futures import as_completed

import pytest

from repro.exec import (
    ResultCache,
    SweepExecutor,
    SweepJob,
    WorkloadRef,
    execute_job,
    shutdown_pool,
)
from repro.exec import executor as executor_module
from repro.exec.executor import Dispatcher, _PoolManager
from repro.system.configs import get_spec

from tests.conftest import tiny_system_config

STORE_WARNING = "could not write to the result cache"


def _job(name: str) -> SweepJob:
    return SweepJob.make(
        get_spec("GMN"),
        WorkloadRef(name, 0.05),
        tiny_system_config(num_gpus=2, num_sms=2),
    )


def _slow_job(delay_s: float, salt: int) -> SweepJob:
    return SweepJob.make(
        get_spec("GMN"),
        WorkloadRef(
            "slow",
            factory="tests.serve.slowwl:make_slow",
            kwargs=(("delay_s", delay_s), ("salt", salt)),
        ),
        tiny_system_config(num_gpus=2, num_sms=2),
        tag=f"slow{salt}",
    )


class _FullDiskCache(ResultCache):
    """A cache whose disk write fails the way a full disk does, after
    the memory tier took the result."""

    def put(self, job, result):
        super().put(job, result)
        raise OSError(errno.ENOSPC, "No space left on device")


def test_stale_discard_keeps_the_successor_pool():
    """A late callback of one pool's breakage must not shut down the
    pool a sibling's retry already runs on."""
    manager = _PoolManager()
    try:
        p1 = manager.acquire(1)
        manager.discard(p1)
        p2 = manager.acquire(1)
        assert p2 is not p1
        manager.discard(p1)
        assert manager.acquire(1) is p2
        assert p2.submit(pow, 2, 10).result(timeout=60) == 1024
    finally:
        manager.discard()


def test_warm_starts_every_worker():
    """The serve daemon warms its pool before it accepts a connection, so
    that no worker forks later holding a client's socket: ``warm`` must
    leave every worker running, not just an empty pool object."""
    shutdown_pool()
    try:
        Dispatcher(cache=None, workers=2).warm()
        workers = list(executor_module._POOL.acquire(2)._processes.values())
        assert len(workers) == 2
        assert all(proc.is_alive() for proc in workers)
    finally:
        shutdown_pool()


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_salvage_store_warns_once_and_keeps_outcomes(jobs, capsys):
    cache = _FullDiskCache()
    sweep = [_job("BP"), _job("KMN")]
    outcomes = SweepExecutor(jobs=jobs, cache=cache).map_outcomes(sweep)
    assert [o.ok for o in outcomes] == [True, True]
    assert capsys.readouterr().err.count(STORE_WARNING) == 1
    # The memory tier still serves both results.
    assert all(cache.get(job) is not None for job in sweep)


def test_cancel_pulls_back_a_job_no_worker_started():
    core = Dispatcher(cache=None, workers=1)
    # The worker and the pool's two-slot call queue hold the first three
    # jobs; the fourth stays with the pool, unstarted, while the first
    # sleeps.
    futures = [
        core.submit(_slow_job(delay_s, salt), execute_job)
        for salt, delay_s in enumerate((1.0, 0.0, 0.0, 0.0))
    ]
    try:
        assert futures[3].cancel()
        assert futures[3].cancelled()
        # Waiters hear of the cancellation (fail-fast drains with them).
        assert list(as_completed([futures[3]], timeout=5)) == [futures[3]]
        deadline = time.monotonic() + 60
        while not futures[0].running():
            assert time.monotonic() < deadline, "first job never started"
            time.sleep(0.01)
        assert not futures[0].cancel()
        for future in futures[:3]:
            assert future.result(timeout=deadline - time.monotonic()).ok
    finally:
        core.close()
        shutdown_pool()


def test_pool_death_past_retries_is_a_keep_going_hole():
    """A job whose worker keeps dying fails like any other point: under
    keep-going the sweep finishes and reports it, instead of aborting."""
    kill = SweepJob.make(
        get_spec("GMN"),
        WorkloadRef("killworker", factory="repro.workloads.diagnostics:make_kill_worker"),
        tiny_system_config(num_gpus=2, num_sms=2),
        tag="kill-forever",
    )
    executor = SweepExecutor(
        jobs=2, keep_going=True, pool_retries=1, pool_backoff_s=0.01
    )
    outcomes = executor.map_outcomes([kill, _job("BP")])
    failure = outcomes[0].failure
    assert failure.exc_type == "BrokenExecutor"
    assert "worker pool died 2 time(s)" in failure.message
    assert outcomes[0].telemetry.retries == 1


def test_one_breakage_retries_every_lost_job_once(tmp_path, capsys):
    """A worker death fails every job the pool held; they are retried
    together, with one warning, and the sweep finishes."""
    sentinel = tmp_path / "killed-once"
    kill = SweepJob.make(
        get_spec("GMN"),
        WorkloadRef(
            "killworker",
            factory="repro.workloads.diagnostics:make_kill_worker",
            kwargs=(("sentinel", str(sentinel)),),
        ),
        tiny_system_config(num_gpus=2, num_sms=2),
        tag="kill-once",
    )
    # The kill job goes first, so the ten slow jobs are still queued or
    # running when its worker dies.
    sweep = [kill] + [_slow_job(0.3, salt) for salt in range(10)]
    shutdown_pool()
    executor = SweepExecutor(
        jobs=2, schedule="fifo", pool_retries=1, pool_backoff_s=0.01
    )
    outcomes = executor.map_outcomes(sweep)
    assert sentinel.exists()
    assert all(o.ok for o in outcomes)
    assert outcomes[0].telemetry.retries == 1
    assert capsys.readouterr().err.count("respawning") == 1
