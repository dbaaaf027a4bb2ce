"""Livelock watchdog: run a simulation in bounded slices.

A buggy configuration (e.g. a routing loop that re-schedules the same
packet forever) keeps the event queue non-empty indefinitely; a plain
``sim.run()`` then hangs with no diagnostic, and in a sweep it wedges one
worker — or the whole invocation — forever.  :func:`run_guarded` executes
the engine in slices of :data:`SLICE_EVENTS` events and checks two budgets
between slices:

- an **event budget** (``SystemConfig.watchdog_max_events`` / the CLI's
  ``--max-events``; package default :data:`DEFAULT_MAX_EVENTS`), and
- an optional **wall-clock budget** (``SystemConfig.watchdog_wall_s`` /
  ``--wall-limit``), primarily meant for pool workers where a single stuck
  point must not hold the sweep hostage.

On a trip it raises :class:`~repro.errors.SimulationError` summarizing the
pending-event count, the simulated time, and per-component queue depths —
enough to see *where* the simulation is spinning.  Slicing never perturbs
results: the event heap and tie-break sequence carry across ``run`` calls
untouched, so a guarded run executes the exact same event order as an
unguarded one (``test_engine_slicing_preserves_event_order`` holds that
bar).

Limits travel with each run's config: the CLI's flags fill the fields
a config leaves unset (:meth:`repro.config.SystemConfig.with_watchdog`),
and an unset field falls back to the package default.  ``0`` disables a
budget outright.

Known limitation: the watchdog regains control only *between* events.  A
single callback that never returns (an infinite Python loop inside one
event) cannot be interrupted from within the process.

:func:`collector_paused` keeps CPython's cyclic garbage collector out of
a simulated point: automatic collections during a drain find almost
nothing, and only full collections, which traverse every live object,
would free a dead system.  With collection off for the whole point, its
dead system is still in the youngest generation when the point returns,
and one ``gc.collect(0)`` frees it (docs/performance.md, "Cyclic GC and
the event loop").
"""

from __future__ import annotations

import contextlib
import gc
import threading
import time
from typing import Callable, Iterator, Optional, Tuple

from ..errors import SimulationError

#: Default per-run event budget.  Far above any real reproduction run
#: (the full-scale figure sweeps execute a few million events per point),
#: so it only ever trips on a genuine livelock.
DEFAULT_MAX_EVENTS = 1_000_000_000

#: Events per engine slice; budgets are checked at this granularity.
SLICE_EVENTS = 1_000_000


def resolve_limits(cfg) -> Tuple[Optional[int], Optional[float]]:
    """Effective (max_events, wall_s) for a run under config ``cfg``.

    Per-budget precedence: config field, then the package default
    (events) or off (wall clock).  ``0`` disables.
    """
    max_events = getattr(cfg, "watchdog_max_events", None)
    if max_events is None:
        max_events = DEFAULT_MAX_EVENTS
    if max_events == 0:
        max_events = None
    wall_s = getattr(cfg, "watchdog_wall_s", None)
    if wall_s == 0:
        wall_s = None
    return max_events, wall_s


#: Threads currently inside :func:`collector_paused`, and whether the
#: collector was enabled when the first of them entered.  Collector state
#: is process-wide, so overlapping pauses share one; this is bookkeeping
#: for that, not a run setting.
_pause_lock = threading.Lock()
_pause_depth = 0
_pause_restore = False


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """Run the body with the cyclic garbage collector off.

    The first entry (in any thread) records whether collection was
    enabled and disables it; the last exit runs one young collection
    (``gc.collect(0)``) and restores the recorded state, also when the
    body raises.  Pauses nest and overlap across threads: collection stays
    off until every one of them has exited.  The body should drop its
    cyclic garbage before it returns, so the young collection frees it.
    """
    global _pause_depth, _pause_restore
    with _pause_lock:
        if _pause_depth == 0:
            _pause_restore = gc.isenabled()
            gc.disable()
        _pause_depth += 1
    try:
        yield
    finally:
        with _pause_lock:
            _pause_depth -= 1
            if _pause_depth == 0:
                gc.collect(0)
                if _pause_restore:
                    gc.enable()


def queue_depth_summary(system) -> str:
    """One-line per-component queue-depth snapshot (duck-typed, like
    :mod:`repro.obs.bind`), embedded in watchdog/deadlock diagnostics."""
    parts = []
    vaults = [v for hmc in system.hmc_list for v in hmc.vaults]
    if vaults:
        depths = [v.occupancy for v in vaults]
        parts.append(f"vault queues sum={sum(depths)} max={max(depths)}")
    sms = [sm for gpu in system.gpus for sm in gpu.sms]
    if sms:
        parts.append(
            f"resident CTAs={sum(sm.resident_ctas for sm in sms)}"
            f" outstanding mem={sum(sm.outstanding for sm in sms)}"
        )
    if system.network is not None:
        stats = system.network.stats
        parts.append(f"net in-flight={stats.injected - stats.delivered}")
    if system.pcie is not None:
        parts.append(f"pcie transactions={system.pcie.transactions}")
    if system.pcn is not None:
        parts.append(f"pcn transactions={system.pcn.transactions}")
    return ", ".join(parts)


def run_guarded(
    sim,
    max_events: Optional[int] = None,
    wall_s: Optional[float] = None,
    label: str = "simulation",
    describe: Optional[Callable[[], str]] = None,
) -> int:
    """Drain ``sim``'s event queue under the given budgets.

    Returns the number of events executed.  With both budgets ``None``
    this is exactly ``sim.run()`` (one call with no budget).
    """
    if max_events is None and wall_s is None:
        return sim.run()
    executed = 0
    deadline = time.monotonic() + wall_s if wall_s is not None else None
    while True:
        slice_budget = SLICE_EVENTS
        if max_events is not None:
            slice_budget = min(slice_budget, max_events - executed)
        executed += sim.run(max_events=slice_budget)
        if not sim.pending_events:
            return executed
        if max_events is not None and executed >= max_events:
            _trip(
                sim,
                f"event budget of {max_events} exhausted",
                label,
                describe,
            )
        if deadline is not None and time.monotonic() >= deadline:
            _trip(
                sim,
                f"wall-clock budget of {wall_s}s exhausted "
                f"({executed} events executed)",
                label,
                describe,
            )


def _trip(sim, reason: str, label: str, describe) -> None:
    detail = describe() if describe is not None else ""
    raise SimulationError(
        f"watchdog: {label} looks livelocked ({reason}): "
        f"{sim.pending_events} events pending at t={sim.now} ps"
        + (f"; {detail}" if detail else "")
    )
