"""Discrete-event simulation engine.

The entire system model is event-driven: components schedule callbacks at
absolute picosecond timestamps and the engine executes them in time order.
Ties are broken by insertion order so runs are fully deterministic.
"""

from __future__ import annotations

import heapq
import sys
from typing import Callable, Optional

from ..errors import SimulationError

Callback = Callable[[], None]

# at()/after() are the hottest call sites in the simulator; binding heappush
# at module level skips the heapq attribute chase on every schedule.
_heappush = heapq.heappush

#: The budget of an unbounded :meth:`Simulator.run`: an int, so the loop
#: condition stays an int comparison.
_UNBOUNDED = sys.maxsize


class Simulator:
    """A deterministic discrete-event simulator with integer-ps time."""

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: list = []
        self._seq: int = 0
        self._events_executed: int = 0
        self._peak_pending: int = 0
        self._running = False
        #: Optional :class:`~repro.obs.tracer.ChromeTracer`.  Components
        #: reach it as ``sim.tracer`` and guard every emission with a
        #: single ``is not None`` check, so the disabled cost is one
        #: attribute load per hook site.
        self.tracer = None
        #: Optional :class:`~repro.obs.profiler.EventLoopProfiler`; when
        #: set, :meth:`run` times every callback (checked once per run).
        self.profiler = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(self, time_ps: int, fn: Callback) -> None:
        """Schedule ``fn`` to run at absolute time ``time_ps``."""
        if time_ps < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {time_ps} < now={self.now}"
            )
        queue = self._queue
        _heappush(queue, (time_ps, self._seq, fn))
        self._seq += 1
        # Peak-pending high-water mark: the heap only grows here, so one
        # len/compare per schedule is the entire telemetry cost.
        if len(queue) > self._peak_pending:
            self._peak_pending = len(queue)

    def after(self, delay_ps: int, fn: Callback) -> None:
        """Schedule ``fn`` to run ``delay_ps`` from now."""
        if delay_ps < 0:
            raise SimulationError(f"negative delay: {delay_ps}")
        # The body of at() inlined (a non-negative delay is never in the
        # past): after() is the second-hottest scheduling call.
        queue = self._queue
        _heappush(queue, (self.now + delay_ps, self._seq, fn))
        self._seq += 1
        if len(queue) > self._peak_pending:
            self._peak_pending = len(queue)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains or ``max_events`` have run.

        Returns the number of events executed during this call.
        """
        budget = _UNBOUNDED if max_events is None else max_events
        executed = 0
        self._running = True
        profiler = self.profiler
        queue = self._queue
        pop = heapq.heappop
        try:
            if profiler is None:
                # This loop executes every event of every simulation (the
                # watchdog, repro.sim.watchdog, runs it in budgeted
                # slices): a pop, a store, a call and one comparison.
                while queue and executed < budget:
                    entry = pop(queue)
                    self.now = entry[0]
                    entry[2]()
                    executed += 1
            else:
                while queue and executed < budget:
                    entry = pop(queue)
                    self.now = entry[0]
                    profiler.record(entry[2])
                    executed += 1
        finally:
            self._running = False
        self._events_executed += executed
        return executed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        return len(self._queue)

    @property
    def events_executed(self) -> int:
        return self._events_executed

    @property
    def peak_pending_events(self) -> int:
        """High-water mark of the pending-event heap over the sim's life."""
        return self._peak_pending


class Barrier:
    """Counts down ``count`` arrivals, then fires a completion callback.

    Used for fork/join patterns such as "this CTA phase issued N memory
    accesses; resume when all N responses arrived".
    """

    def __init__(self, count: int, on_done: Callback) -> None:
        if count < 0:
            raise SimulationError("barrier count must be >= 0")
        self._remaining = count
        self._on_done = on_done
        self._fired = False
        if count == 0:
            self._fire()

    def arrive(self) -> None:
        if self._fired:
            raise SimulationError("arrival after barrier completion")
        self._remaining -= 1
        if self._remaining == 0:
            self._fire()
        elif self._remaining < 0:  # pragma: no cover - guarded above
            raise SimulationError("barrier over-notified")

    def _fire(self) -> None:
        self._fired = True
        self._on_done()

    @property
    def remaining(self) -> int:
        return self._remaining

    @property
    def done(self) -> bool:
        return self._fired
