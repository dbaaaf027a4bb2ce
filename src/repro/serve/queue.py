"""The server's job queue: priorities, dedup, quotas, cancellation.

A :class:`JobQueue` is a thread-safe state machine between the
connection handlers (producers) and the dispatcher (consumer).  It knows
nothing about sockets or worker pools — that separation is what makes
the concurrency semantics testable without a running daemon:

- **Priority**: entries dispatch lowest ``priority`` value first
  (``0`` is the default; negative = more urgent), FIFO within a
  priority.  A duplicate submission at a *better* priority upgrades the
  shared entry — a queued job is never made to wait because its first
  submitter was patient.
- **Dedup**: entries are keyed on the job's content-addressed cache key
  (:func:`repro.exec.cache.job_key`).  A submission whose key matches a
  queued *or running* entry attaches as another subscription instead of
  enqueueing a second computation; every subscriber gets the result
  events when the one computation lands.
- **Quota backpressure**: at most ``quota`` entries *run* per owning
  client at once.  Over-quota submissions stay queued — backpressure,
  never rejection — and dispatch as the client's running jobs land.
  A deduplicated entry counts against its first submitter only.
- **Cancellation**: cancelling a request detaches its subscriptions.
  An entry left with no subscribers is dropped if still queued; if
  already running it is *detached* — the computation finishes and its
  result lands in the cache (salvage), it just no longer streams to
  anyone.  Waiting subscribers always receive a terminal ``cancelled``
  event, so a client blocked on the stream can never hang.
"""

from __future__ import annotations

import queue as _queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..exec.jobs import JobOutcome, SweepJob

#: Entry lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: How many finished entries the queue remembers for ``status``.
HISTORY = 256


@dataclass
class Subscription:
    """One request's interest in one entry's result events.

    ``events`` is the owning connection's event queue (``None`` for
    fire-and-forget submissions, which can still be cancelled by
    request id but receive no stream).
    """

    request_id: str
    client: str
    events: Optional["_queue.Queue"] = None

    def push(self, event: Dict[str, Any]) -> None:
        if self.events is not None:
            stamped = dict(event)
            stamped["request_id"] = self.request_id
            self.events.put(stamped)


@dataclass
class Entry:
    """One deduplicated unit of work (one simulation point)."""

    job: SweepJob
    key: str
    job_id: str
    owner: str  #: client whose quota this entry counts against
    priority: int
    seq: int
    state: str = QUEUED
    subscriptions: List[Subscription] = field(default_factory=list)
    #: Set by the server once handed to the dispatch core.
    future: Any = None
    outcome: Optional[JobOutcome] = None
    #: Pool deaths the running computation has been retried after.
    retries: int = 0
    enqueued_at: float = field(default_factory=time.monotonic)

    @property
    def label(self) -> str:
        return self.job.label

    def notify(self, event: Dict[str, Any]) -> None:
        """Fan one event out to every subscription (request id stamped)."""
        for sub in self.subscriptions:
            sub.push(event)

    def announce(self, kind: str, **fields: Any) -> None:
        """:meth:`notify` a ``kind`` event about this entry: its
        ``job_id`` and ``label``, then ``fields``."""
        self.notify(
            {"event": kind, "job_id": self.job_id, "label": self.label, **fields}
        )

    def describe(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "label": self.label,
            "key": self.key,
            "state": self.state,
            "owner": self.owner,
            "priority": self.priority,
            "subscribers": len(self.subscriptions),
            "retries": self.retries,
        }


class JobQueue:
    """Thread-safe priority queue with dedup, quotas, and cancellation."""

    def __init__(self, quota: int = 2, history: int = HISTORY) -> None:
        if quota < 1:
            raise ValueError(f"quota must be >= 1, got {quota}")
        self.quota = quota
        self._cond = threading.Condition()
        #: Live (queued or running) entries by cache key — the dedup map.
        self._by_key: Dict[str, Entry] = {}
        #: Queued entries, scanned for the best eligible at dispatch.
        self._queued: List[Entry] = []
        #: Entries currently running, by job id.
        self._running: Dict[str, Entry] = {}
        #: Running-entry count per owning client (the quota ledger).
        self._active: Dict[str, int] = {}
        self._history: deque = deque(maxlen=history)
        self._seq = 0
        self._requests = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Producers (connection handlers)
    # ------------------------------------------------------------------
    def new_request_id(self) -> str:
        with self._cond:
            self._requests += 1
            return f"r{self._requests}"

    def submit(
        self,
        job: SweepJob,
        key: str,
        client: str,
        priority: int,
        request_id: str,
        events: Optional["_queue.Queue"] = None,
    ) -> Tuple[Entry, bool]:
        """Enqueue one job (or attach to its in-flight duplicate).

        Returns ``(entry, dedup)``; ``dedup`` is True when the job
        attached to an existing queued/running entry instead of creating
        a new one.
        """
        with self._cond:
            if self._closed:
                raise RuntimeError("queue is closed")
            sub = Subscription(request_id=request_id, client=client, events=events)
            entry = self._by_key.get(key)
            if entry is not None:
                entry.subscriptions.append(sub)
                if entry.state == QUEUED and priority < entry.priority:
                    entry.priority = priority  # urgency upgrade
                    self._cond.notify_all()
                return entry, True
            self._seq += 1
            entry = Entry(
                job=job,
                key=key,
                job_id=f"j{self._seq}",
                owner=client,
                priority=priority,
                seq=self._seq,
                subscriptions=[sub],
            )
            self._by_key[key] = entry
            self._queued.append(entry)
            self._cond.notify_all()
            return entry, False

    # ------------------------------------------------------------------
    # Consumer (the dispatcher)
    # ------------------------------------------------------------------
    def acquire_next(self, timeout: Optional[float] = None) -> Optional[Entry]:
        """Pop the best dispatchable entry, blocking up to ``timeout``.

        "Best" is lowest ``(priority, seq)`` among queued entries whose
        owner has quota headroom; entries blocked by their owner's quota
        are skipped (not popped), which is exactly the backpressure
        contract — they dispatch later, they are never dropped.
        Returns ``None`` on timeout or once the queue is closed.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                if self._closed:
                    return None
                best = None
                for entry in self._queued:
                    if self._active.get(entry.owner, 0) >= self.quota:
                        continue
                    if best is None or (entry.priority, entry.seq) < (
                        best.priority,
                        best.seq,
                    ):
                        best = entry
                if best is not None:
                    self._queued.remove(best)
                    best.state = RUNNING
                    self._running[best.job_id] = best
                    self._active[best.owner] = (
                        self._active.get(best.owner, 0) + 1
                    )
                    return best
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._cond.wait(remaining)
                else:
                    self._cond.wait()

    def finish(
        self,
        entry: Entry,
        outcome: Optional[JobOutcome],
        event: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Move a running entry to its terminal state and free quota.

        The terminal state comes from the outcome (``done``/``failed``);
        a ``None`` outcome marks a cancelled entry.  The terminal
        ``event`` (when given) fans out *under the lock*, atomically
        with retirement: a concurrent duplicate submission either
        attaches before retirement (and receives this event) or misses
        the dedup map entirely (and is served by the dispatcher's cache
        re-check) — it can never attach to an entry whose terminal event
        already fired.
        """
        with self._cond:
            self._release_running(entry)
            if outcome is None:
                entry.state = CANCELLED
            else:
                entry.outcome = outcome
                entry.state = DONE if outcome.ok else FAILED
            if event is not None:
                entry.notify(event)
            self._retire(entry)
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def cancel_request(
        self, request_id: str
    ) -> Tuple[List[Entry], List[Entry], List[Entry]]:
        """Detach ``request_id`` from every entry it subscribes to.

        Returns ``(dropped, orphaned, shared)``: entries cancelled
        outright (queued, lost their last subscriber); running entries
        that lost their last subscriber — the server decides whether
        those can still be pulled back from the pool
        (``future.cancel()``), and whatever keeps running salvages its
        result into the cache when it lands; and entries this request
        was detached from that other requests still subscribe to (those
        continue untouched).  The union of the three is every entry the
        request held a subscription — and therefore a cache pin — on.
        """
        dropped: List[Entry] = []
        orphaned: List[Entry] = []
        shared: List[Entry] = []
        with self._cond:
            for entry in list(self._queued) + list(self._running.values()):
                keep: List[Subscription] = []
                mine: List[Subscription] = []
                for sub in entry.subscriptions:
                    (mine if sub.request_id == request_id else keep).append(sub)
                if not mine:
                    continue
                # A waiter blocked on this stream must see a terminal
                # event even though it is being detached.
                for sub in mine:
                    sub.push(
                        {
                            "event": "cancelled",
                            "job_id": entry.job_id,
                            "label": entry.label,
                            "state": entry.state,
                        }
                    )
                entry.subscriptions = keep
                if keep:
                    shared.append(entry)  # others still want this result
                    continue
                if entry.state == QUEUED:
                    self._queued.remove(entry)
                    entry.state = CANCELLED
                    del self._by_key[entry.key]
                    self._history.append(entry)
                    dropped.append(entry)
                elif entry.state == RUNNING:
                    orphaned.append(entry)
            self._cond.notify_all()
        return dropped, orphaned, shared

    # ------------------------------------------------------------------
    def drain(self) -> List[Entry]:
        """Cancel every queued entry (server shutdown); running entries
        are left to the server's grace period."""
        with self._cond:
            dropped = list(self._queued)
            for entry in dropped:
                entry.state = CANCELLED
                del self._by_key[entry.key]
                entry.announce("cancelled", state=QUEUED, reason="server shutting down")
                self._history.append(entry)
            self._queued.clear()
            self._cond.notify_all()
            return dropped

    def close(self) -> None:
        """Wake and retire the dispatcher; further submits raise."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # ------------------------------------------------------------------
    def running(self) -> List[Entry]:
        with self._cond:
            return list(self._running.values())

    def counts(self) -> Dict[str, int]:
        with self._cond:
            finished: Dict[str, int] = {DONE: 0, FAILED: 0, CANCELLED: 0}
            for entry in self._history:
                finished[entry.state] = finished.get(entry.state, 0) + 1
            return {
                "queued": len(self._queued),
                "running": len(self._running),
                "done": finished[DONE],
                "failed": finished[FAILED],
                "cancelled": finished[CANCELLED],
            }

    def status(self) -> Dict[str, Any]:
        """A point-in-time snapshot for the ``status`` op."""
        with self._cond:
            return {
                "quota": self.quota,
                "queued": [e.describe() for e in sorted(
                    self._queued, key=lambda e: (e.priority, e.seq)
                )],
                "running": [
                    e.describe() for e in self._running.values()
                ],
                "active_per_client": dict(self._active),
                "finished": len(self._history),
            }

    # -- internal (lock held) -------------------------------------------
    def _release_running(self, entry: Entry) -> None:
        self._running.pop(entry.job_id, None)
        count = self._active.get(entry.owner, 0) - 1
        if count > 0:
            self._active[entry.owner] = count
        else:
            self._active.pop(entry.owner, None)

    def _retire(self, entry: Entry) -> None:
        if self._by_key.get(entry.key) is entry:
            del self._by_key[entry.key]
        self._history.append(entry)


__all__ = [
    "CANCELLED",
    "DONE",
    "FAILED",
    "Entry",
    "JobQueue",
    "QUEUED",
    "RUNNING",
    "Subscription",
]
