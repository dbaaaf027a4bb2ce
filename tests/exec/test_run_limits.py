"""Watchdog limits travel with each job: through the warm pool and the
serve daemon alike, with no limit state in the workers."""

from __future__ import annotations

import os

from repro.config import SystemConfig
from repro.exec import ResultCache, SweepExecutor, pool_spawns, shutdown_pool
from repro.experiments.common import ExperimentResult, run_jobs
from repro.serve.client import ServeClient
from repro.serve.protocol import ServeAddress
from repro.serve.server import SweepServer


def _limited_sweep(executor):
    return [
        executor.job("UMN", "VEC", scale=0.05, tag="limited"),
        # A config that sets its own budget wins: 0 disables the watchdog.
        executor.job(
            "GMN",
            "VEC",
            SystemConfig(watchdog_max_events=0),
            scale=0.05,
            tag="unlimited",
        ),
    ]


def test_pooled_keep_going_sweep_reports_the_watchdog_trip_as_a_hole():
    executor = SweepExecutor(jobs=2, keep_going=True, max_events=50)
    result = ExperimentResult("x", "x")
    limited, unlimited = run_jobs(_limited_sweep(executor), executor, result)
    assert limited is None and unlimited is not None
    (failure,) = result.failures
    assert failure.label == "limited"
    assert failure.exc_type == "SimulationError"
    assert "watchdog" in failure.message and "50" in failure.message
    # Both points ran on the pool, not in this process.
    assert all(t.worker_pid != os.getpid() for t in result.telemetry)


def test_sweeps_with_different_limits_share_one_pool():
    shutdown_pool()
    before = pool_spawns()
    try:
        for max_events in (50, 10_000_000):
            executor = SweepExecutor(jobs=2, keep_going=True, max_events=max_events)
            outcomes = executor.map_outcomes(_limited_sweep(executor))
            assert outcomes[0].ok == (max_events > 50)
            assert outcomes[1].ok
        assert pool_spawns() - before == 1
    finally:
        shutdown_pool()


def test_serve_applies_its_limits_to_every_accepted_job(tmp_path):
    server = SweepServer(
        ServeAddress(socket_path=str(tmp_path / "serve.sock")),
        cache=ResultCache(),
        jobs=1,
        max_events=50,
    )
    server.start()
    try:
        job = SweepExecutor().job("UMN", "VEC", scale=0.05)
        client = ServeClient(server.address, timeout=60.0)
        events = list(client.submit([job.system.to_dict()], client="alice"))
        kinds = [e["event"] for e in events]
        failed = next(e for e in events if e["event"] == "failed")
        assert failed["exc_type"] == "SimulationError"
        assert "watchdog" in failed["message"]
        assert kinds[-1] == "end" and events[-1]["failed"] == 1
        assert len(server.cache.pinned()) == 0
    finally:
        server.stop()
        if server._serve_thread is not None:
            server._serve_thread.join(timeout=10.0)
