"""Discrete-event simulation core."""

from .engine import Barrier, Simulator
from .watchdog import (
    DEFAULT_MAX_EVENTS,
    queue_depth_summary,
    resolve_limits,
    run_guarded,
)

__all__ = [
    "Barrier",
    "DEFAULT_MAX_EVENTS",
    "Simulator",
    "queue_depth_summary",
    "resolve_limits",
    "run_guarded",
]
