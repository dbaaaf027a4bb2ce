"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Barrier


class TestScheduling:
    def test_events_run_in_time_order(self, sim):
        order = []
        sim.at(300, lambda: order.append("c"))
        sim.at(100, lambda: order.append("a"))
        sim.at(200, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self, sim):
        order = []
        sim.at(100, lambda: order.append(1))
        sim.at(100, lambda: order.append(2))
        sim.at(100, lambda: order.append(3))
        sim.run()
        assert order == [1, 2, 3]

    def test_after_is_relative_to_now(self, sim):
        times = []
        sim.at(500, lambda: sim.after(250, lambda: times.append(sim.now)))
        sim.run()
        assert times == [750]

    def test_clock_advances_to_event_time(self, sim):
        sim.at(12345, lambda: None)
        sim.run()
        assert sim.now == 12345

    def test_scheduling_in_the_past_raises(self, sim):
        sim.at(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(50, lambda: None)

    def test_negative_delay_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.after(-1, lambda: None)

    def test_zero_delay_runs_after_current_event(self, sim):
        order = []

        def first():
            sim.after(0, lambda: order.append("second"))
            order.append("first")

        sim.at(10, first)
        sim.run()
        assert order == ["first", "second"]

    def test_events_scheduled_during_run_execute(self, sim):
        hits = []

        def recurse(depth):
            hits.append(depth)
            if depth < 5:
                sim.after(10, lambda: recurse(depth + 1))

        sim.at(0, lambda: recurse(0))
        sim.run()
        assert hits == list(range(6))
        assert sim.now == 50


class TestRunLimits:
    def test_budget_leaves_later_events_pending(self, sim):
        ran = []
        sim.at(100, lambda: ran.append(100))
        sim.at(200, lambda: ran.append(200))
        executed = sim.run(max_events=1)
        assert executed == 1
        assert ran == [100]
        assert sim.pending_events == 1
        assert sim.now == 100

    def test_max_events_limit(self, sim):
        for t in range(10):
            sim.at(t * 10, lambda: None)
        assert sim.run(max_events=4) == 4
        assert sim.pending_events == 6

    def test_budgeted_run_on_empty_queue_executes_nothing(self, sim):
        ran = []
        sim.at(5, lambda: ran.append(1))
        assert sim.run(max_events=1) == 1
        assert ran == [1]
        assert sim.run(max_events=1) == 0
        assert sim.events_executed == 1

    def test_profiler_loop_honours_the_budget(self, sim):
        recorded = []

        class Recorder:
            def record(self, fn):
                recorded.append(fn)
                fn()

        sim.profiler = Recorder()
        for t in range(5):
            sim.at(t, lambda: None)
        assert sim.run(max_events=3) == 3
        assert len(recorded) == 3
        assert sim.run() == 2
        assert len(recorded) == 5

    def test_events_executed_accumulates(self, sim):
        sim.at(1, lambda: None)
        sim.at(2, lambda: None)
        sim.run()
        assert sim.events_executed == 2


class TestBarrier:
    def test_fires_after_count_arrivals(self):
        done = []
        barrier = Barrier(3, lambda: done.append(True))
        barrier.arrive()
        barrier.arrive()
        assert not done
        barrier.arrive()
        assert done == [True]
        assert barrier.done

    def test_zero_count_fires_immediately(self):
        done = []
        Barrier(0, lambda: done.append(True))
        assert done == [True]

    def test_over_notify_raises(self):
        barrier = Barrier(1, lambda: None)
        barrier.arrive()
        with pytest.raises(SimulationError):
            barrier.arrive()

    def test_negative_count_raises(self):
        with pytest.raises(SimulationError):
            Barrier(-1, lambda: None)

    def test_remaining_tracks_arrivals(self):
        barrier = Barrier(2, lambda: None)
        assert barrier.remaining == 2
        barrier.arrive()
        assert barrier.remaining == 1
