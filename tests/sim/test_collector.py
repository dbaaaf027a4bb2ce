"""The cyclic GC stays out of a simulated point.

A drain must make (almost) no cyclic garbage: a per-event reference cycle
would fill the young generation while the collector is paused and show up
only as resident memory.  And the pause itself must nest across threads
and always hand the collector back in the state it found it.
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import threading

import pytest

from repro.errors import SimulationError
from repro.experiments.ext_concurrent import kernel_pair
from repro.network.traffic import OfferedLoad
from repro.sim import watchdog
from repro.sim.watchdog import collector_paused
from repro.system import run as run_module
from repro.system.configs import get_spec
from repro.system.run import run_workload
from repro.workloads.diagnostics import make_livelock
from repro.workloads.suite import get_workload

from tests.conftest import tiny_system_config

#: Most unreachable objects one drain may leave for the collector.  The
#: points below leave 0-30; one cycle per routing decision or per event
#: leaves thousands.
DRAIN_GARBAGE_MAX = 64


@pytest.fixture
def collector_enabled():
    """Run the test with the collector on, and put back what was there."""
    enabled = gc.isenabled()
    gc.enable()
    try:
        yield
    finally:
        if not enabled:
            gc.disable()


def _cfg(**changes):
    return dataclasses.replace(tiny_system_config(num_gpus=4, num_sms=2), **changes)


POINTS = {
    "packet-gmn": lambda: (get_spec("GMN"), get_workload("KMN", 0.05), _cfg(), {}),
    "flit-gmn": lambda: (
        get_spec("GMN"), get_workload("KMN", 0.05), _cfg(network_model="flit"), {}
    ),
    "ugal-ddfly": lambda: (
        get_spec("GMN").with_(topology="ddfly", routing="ugal"),
        get_workload("KMN", 0.05), _cfg(), {},
    ),
    "pcn-nvlink": lambda: (get_spec("NVLink"), get_workload("KMN", 0.05), _cfg(), {}),
    "umn-host-step": lambda: (get_spec("UMN"), get_workload("CG.S", 0.05), _cfg(), {}),
    "concurrent": lambda: (
        get_spec("UMN"), kernel_pair("VEC", 0.05, "KMN", 0.05), _cfg(),
        {"concurrent": True},
    ),
    "offered-load": lambda: (
        get_spec("GMN").with_(topology="ddfly", routing="ugal"),
        OfferedLoad(load=0.5, packets_per_gpu=40), _cfg(), {},
    ),
}


@pytest.mark.parametrize("point", sorted(POINTS))
def test_drain_makes_no_cyclic_garbage(point, monkeypatch):
    garbage = []
    drain = run_module.run_guarded

    def counted_drain(sim, *args, **kwargs):
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            return drain(sim, *args, **kwargs)
        finally:
            # The system is still alive here: whatever this finds is
            # garbage the drain itself made.
            garbage.append(gc.collect())
            if enabled:
                gc.enable()

    monkeypatch.setattr(run_module, "run_guarded", counted_drain)
    spec, workload, cfg, options = POINTS[point]()
    result = run_workload(spec, workload, cfg, **options)
    assert result.events_executed > 0
    (found,) = garbage
    assert found <= DRAIN_GARBAGE_MAX


def test_overlapping_pauses_keep_the_collector_off_until_both_exit(
    collector_enabled,
):
    first_in, second_in, first_out = (threading.Event() for _ in range(3))
    seen = {}

    def first():
        with collector_paused():
            first_in.set()
            second_in.wait(10)
        first_out.set()

    def second():
        first_in.wait(10)
        with collector_paused():
            second_in.set()
            first_out.wait(10)
            seen["after first exit"] = gc.isenabled()

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    assert seen == {"after first exit": False}
    assert gc.isenabled()


def test_many_threads_pausing_at_once_never_see_the_collector_on(
    collector_enabled,
):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    seen_on = []

    def pause_repeatedly():
        for _ in range(200):
            with collector_paused():
                if gc.isenabled():
                    seen_on.append(threading.get_ident())

    threads = [threading.Thread(target=pause_repeatedly) for _ in range(6)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert seen_on == []
    assert gc.isenabled() and watchdog._pause_depth == 0


def test_pause_runs_one_young_collection_on_last_exit(monkeypatch, collector_enabled):
    collections = []
    monkeypatch.setattr(
        gc, "collect", lambda generation=2: collections.append(generation)
    )
    with collector_paused():
        with collector_paused():
            assert not gc.isenabled()
        assert collections == []
    assert collections == [0]


def test_watchdog_trip_restores_the_collector(collector_enabled):
    cfg = _cfg(watchdog_max_events=20_000)
    with pytest.raises(SimulationError, match="watchdog"):
        run_workload(get_spec("GMN"), make_livelock(), cfg=cfg)
    assert gc.isenabled()
    assert watchdog._pause_depth == 0


def test_caller_that_disabled_the_collector_finds_it_disabled():
    enabled = gc.isenabled()
    gc.disable()
    try:
        run_workload(get_spec("GMN"), get_workload("VEC", 0.05), _cfg())
        assert not gc.isenabled()
    finally:
        if enabled:
            gc.enable()


def test_analytic_run_leaves_the_collector_alone(monkeypatch, collector_enabled):
    calls = []
    for name in ("disable", "enable", "collect"):
        monkeypatch.setattr(gc, name, lambda *a, name=name: calls.append(name))
    result = run_workload(
        get_spec("UMN"), get_workload("VEC", 0.05), _cfg(network_model="analytic")
    )
    assert result.kernel_ps > 0
    assert calls == []
