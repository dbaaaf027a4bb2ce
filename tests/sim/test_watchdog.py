"""The livelock watchdog: bounded engine runs, limit resolution, tripping."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import SimulationError
from repro.sim import watchdog
from repro.sim.engine import Simulator
from repro.sim.watchdog import (
    DEFAULT_MAX_EVENTS,
    resolve_limits,
    run_guarded,
)
from repro.system.configs import get_spec
from repro.system.run import run_workload
from repro.workloads.diagnostics import make_livelock

from tests.conftest import tiny_system_config


def _livelocked_sim() -> Simulator:
    """An engine whose single event re-schedules itself forever."""
    sim = Simulator()

    def tick() -> None:
        sim.after(10, tick)

    sim.after(0, tick)
    return sim


def _finite_sim(events: int) -> Simulator:
    sim = Simulator()
    for i in range(events):
        sim.at(i * 10, lambda: None)
    return sim


# ----------------------------------------------------------------------
# Engine: the bounded fast path
# ----------------------------------------------------------------------
def test_engine_max_events_bounds_the_run():
    sim = _finite_sim(10)
    assert sim.run(max_events=3) == 3
    assert sim.pending_events == 7
    assert sim.run() == 7
    assert sim.events_executed == 10


def test_engine_slicing_preserves_event_order():
    full, sliced = _finite_sim(25), _finite_sim(25)
    full.run()
    while sliced.pending_events:
        sliced.run(max_events=4)
    assert sliced.now == full.now
    assert sliced.events_executed == full.events_executed


# ----------------------------------------------------------------------
# run_guarded
# ----------------------------------------------------------------------
def test_run_guarded_without_budgets_is_plain_run():
    sim = _finite_sim(5)
    assert run_guarded(sim) == 5
    assert sim.pending_events == 0


def test_run_guarded_completes_under_generous_budget():
    sim = _finite_sim(50)
    assert run_guarded(sim, max_events=10_000, label="finite") == 50


def test_run_guarded_trips_on_event_budget():
    sim = _livelocked_sim()
    with pytest.raises(SimulationError, match="livelocked"):
        run_guarded(sim, max_events=5_000, label="spinner")
    try:
        run_guarded(_livelocked_sim(), max_events=5_000, label="spinner")
    except SimulationError as exc:
        message = str(exc)
    assert "spinner" in message
    assert "event budget of 5000" in message
    assert "events pending" in message
    assert "t=" in message


def test_run_guarded_trip_includes_describe_detail():
    with pytest.raises(SimulationError, match="vault queues sum=9"):
        run_guarded(
            _livelocked_sim(),
            max_events=1_000,
            label="x",
            describe=lambda: "vault queues sum=9",
        )


def test_run_guarded_trips_on_wall_clock(monkeypatch):
    # Shrink the slice so the deadline check happens quickly.
    monkeypatch.setattr(watchdog, "SLICE_EVENTS", 500)
    with pytest.raises(SimulationError, match="wall-clock budget"):
        run_guarded(_livelocked_sim(), wall_s=0.01, label="slow")


# ----------------------------------------------------------------------
# Limit resolution
# ----------------------------------------------------------------------
def test_resolve_limits_package_default():
    cfg = tiny_system_config()
    assert resolve_limits(cfg) == (DEFAULT_MAX_EVENTS, None)


def test_resolve_limits_process_default_and_scoping():
    # The CLI's budgets travel in each run's config: with_watchdog fills
    # the unset fields of a copy and leaves the original untouched.
    cfg = tiny_system_config()
    assert resolve_limits(cfg.with_watchdog(123, 4.5)) == (123, 4.5)
    assert resolve_limits(cfg) == (DEFAULT_MAX_EVENTS, None)


def test_resolve_limits_config_beats_process_default():
    cfg = dataclasses.replace(
        tiny_system_config(), watchdog_max_events=7, watchdog_wall_s=1.0
    )
    assert cfg.with_watchdog(123, 4.5) is cfg
    assert resolve_limits(cfg.with_watchdog(123, 4.5)) == (7, 1.0)


def test_resolve_limits_zero_disables():
    cfg = dataclasses.replace(
        tiny_system_config(), watchdog_max_events=0, watchdog_wall_s=0
    )
    assert resolve_limits(cfg) == (None, None)


def test_watchdog_knobs_do_not_change_spec_identity():
    from repro.system.spec import SystemSpec, WorkloadRef

    cfg = tiny_system_config()
    guarded = dataclasses.replace(cfg, watchdog_max_events=10, watchdog_wall_s=2.0)
    ref = WorkloadRef("BP", 0.05)
    plain = SystemSpec.make(get_spec("GMN"), ref, cfg)
    tuned = SystemSpec.make(get_spec("GMN"), ref, guarded)
    assert plain.to_dict() == tuned.to_dict()


# ----------------------------------------------------------------------
# End to end: a real livelocked workload through run_workload
# ----------------------------------------------------------------------
def test_livelock_workload_trips_watchdog():
    cfg = dataclasses.replace(
        tiny_system_config(num_gpus=2, num_sms=2), watchdog_max_events=20_000
    )
    with pytest.raises(SimulationError) as excinfo:
        run_workload(get_spec("GMN"), make_livelock(), cfg=cfg)
    message = str(excinfo.value)
    assert "watchdog" in message
    assert "livelock on GMN" in message
    # The diagnostic names where the simulation is spinning.
    assert "resident CTAs" in message


def test_deadlock_message_names_queue_depths(monkeypatch):
    # Force the "queue drained but workload unfinished" branch by making
    # the engine drop all pending events instead of running them.
    def drain(self, max_events=None):
        self._queue.clear()
        return 0

    monkeypatch.setattr(Simulator, "run", drain)
    cfg = tiny_system_config(num_gpus=2, num_sms=2)
    with pytest.raises(SimulationError) as excinfo:
        run_workload(get_spec("GMN"), make_livelock(), cfg=cfg)
    message = str(excinfo.value)
    assert "deadlocked" in message
    assert "step" in message
    assert "vault queues" in message or "resident CTAs" in message
