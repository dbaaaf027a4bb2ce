"""The ``repro serve`` daemon: a long-lived sweep server.

One process owns the warm worker pool and the result cache; any number
of thin clients (``repro submit``/``status``/``cancel``) connect over a
Unix socket or loopback TCP port and speak the JSONL protocol of
:mod:`repro.serve.protocol`.  Layout:

- the **accept loop** (main thread) hands each connection to a short-
  lived handler thread; one connection = one request,
- handler threads translate ``submit`` requests into
  :class:`~repro.serve.queue.JobQueue` entries (dedup, priority, quota
  all live there) and then *stream* events from their per-request event
  queue back to the client,
- one **dispatcher** thread pops dispatchable entries and hands them to
  the :class:`repro.exec.executor.Dispatcher` the batch executor uses
  too: cache hits answer immediately **without touching the pool**,
  analytic points run inline, everything else goes to the shared warm
  pool; the returned future's done callback fans the terminal event out.

Robustness is the dispatch core's: a broken pool is respawned and the
lost entry retried up to ``pool_retries`` times (one ``retried`` event
each); every success is cached before its event fires, so a cancelled
or crashed request never throws finished points away; in-flight keys
are pinned so the size-cap eviction of a capped cache cannot drop a
result between its store and its subscribers' reads.  Shutdown cancels
queued entries, grants running ones a short grace period (their results
still land in the cache), then kills the pool — no orphaned workers.
"""

from __future__ import annotations

import os
import queue as _queue
import signal
import socket
import sys
import threading
import time
import traceback
from collections import deque
from functools import partial
from typing import Any, Dict, List, Optional

from ..errors import ConfigError
from ..exec.cache import ResultCache, cache_max_mb_from_env, job_key
from ..exec.executor import Dispatcher, jobs_from_env, pool_spawns, shutdown_pool
from ..exec.jobs import JobOutcome, SweepJob, execute_job
from ..obs.telemetry import flight_summary
from ..system.spec import SystemSpec
from .protocol import (
    PROTOCOL_SCHEMA,
    ProtocolError,
    ServeAddress,
    read_message,
    validate_request,
    write_message,
)
from .queue import Entry, JobQueue

#: Per-client concurrent-running-jobs quota when ``--quota`` is absent.
DEFAULT_QUOTA = 2

#: Cache size cap applied when serving without an explicit
#: ``--cache-max-mb`` and without ``REPRO_CACHE_MAX_MB``: unlike a CLI
#: run, whose lifetime bounds cache growth, a daemon accretes results
#: indefinitely, so the cap defaults *on* (docs/serving.md).
DEFAULT_CACHE_MAX_MB = 512.0

#: How long a clean shutdown waits for running jobs to land (salvage)
#: before the pool's workers are terminated outright.
DEFAULT_DRAIN_S = 5.0


class SweepServer:
    """The daemon: queue + dispatcher + connection handlers."""

    def __init__(
        self,
        address: ServeAddress,
        cache: Optional[ResultCache] = None,
        jobs: Optional[int] = None,
        quota: int = DEFAULT_QUOTA,
        pool_retries: int = 2,
        drain_s: float = DEFAULT_DRAIN_S,
        max_events: Optional[int] = None,
        wall_s: Optional[float] = None,
    ) -> None:
        if jobs is None:
            jobs = jobs_from_env()
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.address = address
        self.cache = cache if cache is not None else ResultCache()
        self.jobs = jobs
        self.queue = JobQueue(quota=quota)
        self.dispatcher = Dispatcher(self.cache, jobs, pool_retries)
        self.drain_s = drain_s
        #: Watchdog budgets (``--max-events`` / ``--wall-limit``) filled
        #: into every accepted job whose config sets none.
        self.max_events = max_events
        self.wall_s = wall_s
        #: Flight-recorder records of everything this server executed,
        #: bounded so a week-long daemon cannot grow without limit.
        self.telemetry: deque = deque(maxlen=4096)
        self.started_at = time.monotonic()
        self._stop = threading.Event()
        self._stopped = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._dispatcher: Optional[threading.Thread] = None
        self._serve_thread: Optional[threading.Thread] = None
        self._handlers: List[threading.Thread] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Bind, start the dispatcher, and accept until :meth:`stop`."""
        self._listener = self.address.listen()
        # Warm the worker pool *before* the first connection exists:
        # a pool forked mid-request would duplicate the open connection
        # fds into every worker, keeping client sockets half-alive for
        # the workers' lifetime.  (The JSONL protocol is EOF-independent
        # anyway — streams end with an ``end`` event — but leaking
        # connection fds into long-lived workers is still wrong.)
        try:
            self.dispatcher.warm()
        except Exception:
            pass  # a broken spawn here surfaces again at first dispatch
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
        )
        self._dispatcher.start()
        try:
            while not self._stop.is_set():
                try:
                    conn, _ = self._listener.accept()
                except OSError:
                    break  # listener closed by stop()
                handler = threading.Thread(
                    target=self._handle_connection,
                    args=(conn,),
                    name="repro-serve-conn",
                    daemon=True,
                )
                with self._lock:
                    self._handlers = [
                        t for t in self._handlers if t.is_alive()
                    ]
                    self._handlers.append(handler)
                handler.start()
        finally:
            self.stop()

    def start(self) -> None:
        """Run :meth:`serve_forever` on a background thread (tests)."""
        self._serve_thread = threading.Thread(
            target=self.serve_forever, name="repro-serve-accept", daemon=True
        )
        self._serve_thread.start()
        # Wait for the listener to bind so a caller can connect at once.
        deadline = time.monotonic() + 5.0
        while self._listener is None and time.monotonic() < deadline:
            time.sleep(0.01)

    def stop(self) -> None:
        """Clean shutdown: drain queued, grace running, kill the pool.

        Idempotent; callable from any thread (including a signal
        handler's main-thread frame and a handler thread serving a
        ``shutdown`` request).
        """
        with self._lock:
            owner = not self._stop.is_set()
            self._stop.set()
        self._close_listener()
        if not owner:
            # Another thread owns the teardown.  Wait for it: a
            # ``shutdown`` request runs stop() on a *daemon* handler
            # thread, and the main thread — popped out of accept() by
            # the listener close — reaches its own stop() and would
            # otherwise exit the process mid-teardown, killing the
            # handler before the drain, the pool kill, and the socket
            # unlink ever ran.
            self._stopped.wait(self.drain_s + 30.0)
            return
        # No respawn while stopping: a pool death from here on is its
        # jobs' failure.  A respawned pool would fork with the client
        # connections open, only to be killed below.
        self.dispatcher.close()
        try:
            # Queued entries are cancelled (their waiters get terminal
            # events); running ones get a grace period so their results
            # still land in the cache — the salvage contract.
            self.queue.drain()
            deadline = time.monotonic() + self.drain_s
            while self.queue.running() and time.monotonic() < deadline:
                time.sleep(0.05)
            self.queue.close()
            for entry in self.queue.running():
                entry.announce(
                    "cancelled", state=entry.state, reason="server shutting down"
                )
            shutdown_pool(kill=True)
            self.address.cleanup()
        finally:
            self._stopped.set()

    def _close_listener(self) -> None:
        listener, self._listener = self._listener, None
        if listener is not None:
            # shutdown() before close(): on Linux, closing a listening
            # socket does NOT wake a thread blocked in accept() — the
            # accept loop would sleep until the next (never-coming)
            # connection.  shutdown() forces accept() to return at once.
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            entry = self.queue.acquire_next(timeout=0.2)
            if entry is None:
                continue
            self._dispatch_one(entry)

    def _dispatch_one(self, entry: Entry) -> None:
        # The submit handler already answered hits known at submit time;
        # this second look closes the race where an identical running
        # entry finished between that check and this dispatch.
        hit = self.dispatcher.lookup(entry.job)
        if hit is not None:
            self._land(entry, hit)
            return
        entry.announce("started", retries=entry.retries)
        future = self.dispatcher.submit(
            entry.job, execute_job, partial(self._retried, entry)
        )
        entry.future = future
        future.add_done_callback(partial(self._settle, entry))

    def _retried(self, entry: Entry, attempt: int) -> None:
        entry.retries = attempt
        entry.announce("retried", attempt=attempt)

    def _settle(self, entry: Entry, future: Any) -> None:
        """Done callback of a dispatched entry's future.  A cancelled one
        was pulled back before any worker picked it up."""
        self._land(entry, None if future.cancelled() else future.result())

    def _land(self, entry: Entry, outcome: Optional[JobOutcome]) -> None:
        """Terminal bookkeeping for one computed/cached/failed entry, or
        a pulled-back one (``outcome=None``)."""
        event = None
        if outcome is not None:
            if outcome.telemetry is not None:
                self.telemetry.append(outcome.telemetry)
            event = _terminal_event(entry.job_id, entry.label, outcome)
        # The terminal event fans out inside finish(), under the queue
        # lock — atomically with retirement from the dedup map, so a
        # racing duplicate submission can never attach after its event.
        self.queue.finish(entry, outcome, event)
        # Release one cache pin per remaining subscription.  Submissions
        # pin once per (request, job); cancellation unpins the detached
        # subscriptions as it removes them (a pulled-back entry has none
        # left), so the remaining ones account for every outstanding pin.
        for _ in entry.subscriptions:
            self.cache.unpin(entry.key)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _handle_connection(self, conn: socket.socket) -> None:
        stream = conn.makefile("rw", encoding="utf-8", newline="\n")
        try:
            try:
                request = read_message(stream)
                if request is None:
                    return
                op = validate_request(request)
            except ProtocolError as exc:
                write_message(stream, {"event": "error", "message": str(exc)})
                return
            try:
                getattr(self, f"_op_{op}")(stream, request)
            except (BrokenPipeError, ConnectionResetError):
                raise
            except Exception as exc:
                if stream.closed:
                    raise
                self._fail_stream(stream, op, exc)
        except (BrokenPipeError, ConnectionResetError, OSError, ValueError):
            pass  # client went away mid-stream; its subscriptions are
            # cleaned up lazily (events to a dead queue are harmless)
        finally:
            try:
                stream.close()
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass

    def _fail_stream(self, stream, op: str, exc: Exception) -> None:
        """A handler raised after reading its request: log the traceback
        and end the stream with one terminal ``error`` event, so no client
        waits for an ``end`` that never comes.  Call from the ``except``
        block (the traceback is the one being handled)."""
        print(f"repro serve: {op} request failed", file=sys.stderr)
        traceback.print_exc()
        try:
            write_message(
                stream,
                {
                    "event": "error",
                    "message": f"server error: {type(exc).__name__}: {exc}",
                },
            )
        except (OSError, ValueError):
            pass  # the client is gone as well

    # -- submit ---------------------------------------------------------
    def _op_submit(self, stream, request: Dict[str, Any]) -> None:
        client = str(request.get("client") or "anon")
        try:
            priority = int(request.get("priority", 0))
        except (TypeError, ValueError):
            priority = 0
        wait = bool(request.get("wait", True))
        tags = request.get("tags") or []
        jobs: List[SweepJob] = []
        for i, spec_dict in enumerate(request["specs"]):
            try:
                system = SystemSpec.from_dict(spec_dict)
            except Exception as exc:
                write_message(
                    stream,
                    {
                        "event": "error",
                        "message": f"spec {i}: {type(exc).__name__}: {exc}",
                    },
                )
                return
            tag = tags[i] if i < len(tags) and tags[i] else None
            job = SweepJob(system=system, tag=tag)
            jobs.append(job.with_watchdog(self.max_events, self.wall_s))

        request_id = self.queue.new_request_id()
        events: Optional[_queue.Queue] = _queue.Queue() if wait else None
        accepted: List[Dict[str, Any]] = []
        outstanding = 0
        immediate: List[Dict[str, Any]] = []
        for job in jobs:
            key = job_key(job)
            hit = self.dispatcher.lookup(job)
            if hit is not None:
                accepted.append(
                    {"label": job.label, "key": key, "state": "cached"}
                )
                event = _terminal_event(None, job.label, hit)
                event["request_id"] = request_id
                immediate.append(event)
                self.telemetry.append(hit.telemetry)
                continue
            try:
                entry, dedup = self.queue.submit(
                    job,
                    key,
                    client=client,
                    priority=priority,
                    request_id=request_id,
                    events=events,
                )
            except RuntimeError:
                write_message(
                    stream,
                    {"event": "error", "message": "server is shutting down"},
                )
                return
            # Pin per subscription: the key stays eviction-exempt until
            # every interested request has been answered (or cancelled).
            self.cache.pin(key)
            outstanding += 1
            accepted.append(
                {
                    "label": job.label,
                    "key": key,
                    "job_id": entry.job_id,
                    "state": "dedup" if dedup else "queued",
                }
            )
        write_message(
            stream,
            {
                "event": "accepted",
                "schema": PROTOCOL_SCHEMA,
                "request_id": request_id,
                "client": client,
                "jobs": accepted,
                "pending": outstanding,
            },
        )
        for event in immediate:
            write_message(stream, event)
        # Streams always terminate with an ``end`` event — a client must
        # never have to wait for EOF (see ServeClient.request).
        end = {
            "event": "end",
            "request_id": request_id,
            "total": len(jobs),
            "cached": len(immediate),
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
        }
        if not wait:
            end["pending"] = outstanding
            outstanding = 0
        while outstanding > 0:
            try:
                event = events.get(timeout=1.0)
            except _queue.Empty:
                if self._stop.is_set():
                    break
                continue
            write_message(stream, event)
            kind = event.get("event")
            if kind in ("completed", "failed", "cancelled"):
                end[kind] += 1
                outstanding -= 1
        write_message(stream, end)

    # -- status / cancel / ping / shutdown ------------------------------
    def _op_status(self, stream, request: Dict[str, Any]) -> None:
        summary = flight_summary(
            list(self.telemetry),
            cache_stats=self.cache.stats,
            pool_spawns=pool_spawns(),
        )
        write_message(
            stream,
            {
                "event": "status",
                "schema": PROTOCOL_SCHEMA,
                "pid": os.getpid(),
                "address": self.address.describe(),
                "uptime_s": round(time.monotonic() - self.started_at, 1),
                "jobs": self.jobs,
                "queue": self.queue.status(),
                "counts": self.queue.counts(),
                "flight": summary,
                "pinned": len(self.cache.pinned()),
            },
        )

    def _op_cancel(self, stream, request: Dict[str, Any]) -> None:
        request_id = str(request["request_id"])
        dropped, orphaned, shared = self.queue.cancel_request(request_id)
        pulled_back = 0
        # One pin per detached subscription comes back, whatever became
        # of the entry (dropped, left running, or still wanted by others).
        for entry in dropped + orphaned + shared:
            self.cache.unpin(entry.key)
        for entry in orphaned:
            # A running entry nobody wants any more: try to pull it back
            # from the pool; if a worker already has it, let it finish —
            # the result lands in the cache (salvage) on completion.
            future = entry.future
            if future is not None and future.cancel():
                pulled_back += 1
        write_message(
            stream,
            {
                "event": "cancelled",
                "request_id": request_id,
                "dropped": len(dropped),
                "pulled_back": pulled_back,
                "salvaging": len(orphaned) - pulled_back,
            },
        )

    def _op_ping(self, stream, request: Dict[str, Any]) -> None:
        write_message(
            stream,
            {
                "event": "pong",
                "schema": PROTOCOL_SCHEMA,
                "pid": os.getpid(),
                "uptime_s": round(time.monotonic() - self.started_at, 1),
            },
        )

    def _op_shutdown(self, stream, request: Dict[str, Any]) -> None:
        write_message(
            stream, {"event": "stopping", "pid": os.getpid()}
        )
        # stop() closes the listener, which pops serve_forever's accept
        # loop out of accept(); run it here so the requesting client sees
        # the socket close only after shutdown finished.
        self.stop()


def _terminal_event(
    job_id: Optional[str], label: str, outcome: JobOutcome
) -> Dict[str, Any]:
    """The ``completed``/``failed`` event that ends one job's stream."""
    t = outcome.telemetry
    if outcome.ok:
        return {
            "event": "completed",
            "job_id": job_id,
            "label": label,
            "source": t.source if t else "run",
            "wall_s": round(t.wall_s, 4) if t else None,
            "events": t.events if t else None,
            "retries": t.retries if t else 0,
            "row": outcome.result.as_row(),
        }
    return {
        "event": "failed",
        "job_id": job_id,
        "label": label,
        "exc_type": outcome.failure.exc_type,
        "message": outcome.failure.message,
        "wall_s": outcome.failure.wall_s,
    }


# ---------------------------------------------------------------------------
# CLI entry point
# ---------------------------------------------------------------------------
def serve_command(args: Any) -> int:
    """Implements ``repro serve`` (dispatched from :mod:`repro.cli`)."""
    try:
        address = ServeAddress.from_args(args)
    except (ProtocolError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    max_mb = getattr(args, "cache_max_mb", None)
    if max_mb is None:
        max_mb = cache_max_mb_from_env()
    if max_mb is None:
        max_mb = DEFAULT_CACHE_MAX_MB
    elif max_mb <= 0:
        max_mb = None  # --cache-max-mb 0 disables the cap explicitly
    cache_dir = getattr(args, "cache", None)
    cache = ResultCache(cache_dir or None, max_mb=max_mb)

    try:
        server = SweepServer(
            address,
            cache=cache,
            jobs=getattr(args, "jobs", None),
            quota=getattr(args, "quota", None) or DEFAULT_QUOTA,
            pool_retries=getattr(args, "pool_retries", None) or 2,
            drain_s=(
                args.drain_s
                if getattr(args, "drain_s", None) is not None
                else DEFAULT_DRAIN_S
            ),
            max_events=getattr(args, "max_events", None),
            wall_s=getattr(args, "wall_limit", None),
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # SIGTERM (the polite `kill`) and SIGINT take the same clean path.
    # SIGINT needs a handler of its own: a daemon started with `&` from a
    # script inherits it as ignored, and then never sees KeyboardInterrupt.
    def _terminate(signum, frame):  # pragma: no cover - signal timing
        raise KeyboardInterrupt

    signums = (signal.SIGTERM, signal.SIGINT)
    previous = {signum: signal.signal(signum, _terminate) for signum in signums}
    cap = f"{max_mb:g} MB cap" if max_mb else "no size cap"
    store = cache_dir or "memory-only"
    print(
        f"repro serve: listening on {address.describe()} "
        f"(pid {os.getpid()}, {server.jobs} worker(s), "
        f"quota {server.queue.quota}/client, cache {store}, {cap})",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nrepro serve: shutting down", file=sys.stderr)
    finally:
        server.stop()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0


__all__ = [
    "DEFAULT_CACHE_MAX_MB",
    "DEFAULT_DRAIN_S",
    "DEFAULT_QUOTA",
    "SweepServer",
    "serve_command",
]
