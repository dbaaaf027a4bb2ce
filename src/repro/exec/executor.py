"""The process-pool sweep executor.

Every figure reproduction is an embarrassingly parallel sweep — N
independent ``(spec, workload, cfg)`` simulations whose results are merged
into a table.  :class:`SweepExecutor` fans those points out over a
``concurrent.futures.ProcessPoolExecutor`` and merges results in
**submission order**, so the produced rows are identical to a serial run
regardless of worker scheduling.

Degrees of freedom, in precedence order:

1. an explicit ``jobs=`` argument (the CLI's ``--jobs N``),
2. the ``REPRO_JOBS`` environment variable,
3. serial in-process execution (the default — bit-identical to the
   pre-executor behavior, and the mode under which observability sinks
   keep working, since workers cannot share a tracer).

An attached :class:`~repro.exec.cache.ResultCache` short-circuits any job
whose result is already known; only misses are submitted to the pool —
under the default ``lpt`` schedule in longest-predicted-first order (see
:mod:`repro.exec.planner`), which changes wall clock but never rows.
Worker pools are kept warm in a process-wide :class:`_PoolManager` and
reused across sweeps and experiments.

Failure semantics (docs/robustness.md):

- Every point goes through one :class:`Dispatcher`, the chain the serve
  daemon uses too: cache hit, inline analytic, warm pool with bounded
  respawn, salvage into the cache.
- Workers return structured :class:`~repro.exec.jobs.JobOutcome`\\ s, so a
  crashing point never aborts the merge loop.  Outcomes are consumed with
  ``as_completed`` and every **success is cached the moment it lands** —
  a later failure can no longer throw finished work away (salvage).
- **Fail-fast** (default): the first failed point raises
  :class:`~repro.errors.SweepError` naming the point's label; unstarted
  points are cancelled, running ones are drained into the cache first.
- **Keep-going** (``keep_going=True`` / the CLI's ``--keep-going``): the
  sweep finishes, failed points come back as failures in the outcome
  list, and the caller reports them (nonzero exit at the CLI).
- A ``BrokenProcessPool`` (a worker died: OOM-kill, segfault, ``os._exit``)
  is treated as transient: the pool is respawned with bounded backoff and
  **only the lost jobs** are resubmitted, each up to ``pool_retries``
  times; a job that exhausts them fails like any other point.
"""

from __future__ import annotations

import atexit
import dataclasses
import functools
import os
import sys
import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    CancelledError,
    Future,
    InvalidStateError,
    ProcessPoolExecutor,
    as_completed,
)
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Union

from ..config import NETWORK_MODELS, SystemConfig
from ..errors import ConfigError, SweepError
from ..obs.telemetry import JobTelemetry, ProgressListener
from ..system.configs import ArchSpec
from ..system.metrics import RunResult
from .cache import ResultCache
from .jobs import (
    JobFailure,
    JobOutcome,
    SweepJob,
    WorkloadRef,
    _worker_initializer,
    execute_job,
    job_for,
)
from .planner import SCHEDULES, CostBook, CostPrediction, lpt_order, predict_costs

if TYPE_CHECKING:
    from ..obs.bind import Observability

#: Environment variable consulted when no explicit worker count is given.
JOBS_ENV = "REPRO_JOBS"


def auto_jobs() -> int:
    """The worker count ``--jobs auto`` resolves to: every CPU but one,
    leaving a core for the merging parent (never less than 1)."""
    return max(1, (os.cpu_count() or 1) - 1)


def jobs_from_env(default: int = 1) -> int:
    """Parse ``REPRO_JOBS``; ``auto`` resolves via :func:`auto_jobs`,
    invalid or non-positive values fall back (with a warning naming the
    value and the fallback, so a typo like ``REPRO_JOBS=four`` no longer
    silently serializes the sweep)."""
    raw = os.environ.get(JOBS_ENV, "").strip()
    if not raw:
        return default
    if raw.lower() == "auto":
        return auto_jobs()
    try:
        value = int(raw)
    except ValueError:
        print(
            f"warning: ignoring invalid {JOBS_ENV}={raw!r}; "
            f"falling back to {default} worker(s)",
            file=sys.stderr,
        )
        return default
    if value < 1:
        print(
            f"warning: {JOBS_ENV}={raw!r} clamped to 1 worker (serial)",
            file=sys.stderr,
        )
        return 1
    return value


class _PoolManager:
    """One process-wide worker pool, kept warm across sweeps.

    PR 5 tore the pool down after every sweep, so ``repro all --jobs N``
    paid fork + interpreter-warmup once per experiment.  The manager
    hands the same ``ProcessPoolExecutor`` to every sweep with the same
    worker count; a different count or a broken pool discards it and the
    next acquire respawns.  Workers hold no run state (each job carries
    its own watchdog limits), so any sweep can share them.  ``spawns`` counts
    pool creations so the flight summary can show the warm-pool win.

    ``acquire`` and ``discard`` hold a lock: a broken pool fails every
    in-flight future, and the retry its breakage starts discards it
    while another thread may already be acquiring its successor.
    """

    def __init__(self) -> None:
        self._pool: Optional[ProcessPoolExecutor] = None
        self._workers: Optional[int] = None
        self._lock = threading.Lock()
        self.spawns = 0

    def acquire(self, workers: int) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None or self._workers != workers:
                if self._pool is not None:
                    self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = ProcessPoolExecutor(
                    max_workers=workers, initializer=_worker_initializer
                )
                self._workers = workers
                self.spawns += 1
            return self._pool

    def discard(
        self, pool: Optional[ProcessPoolExecutor] = None, kill: bool = False
    ) -> None:
        """Shut the pool down (broken pool, or process exit).

        With ``pool`` given (a pool that broke), discard it only if it is
        still the current one, so that exactly one caller shuts it down:
        a late one must not shut down the successor a retry already runs
        on.  That caller then waits, outside the lock, for the dead pool
        to fail every job it held; cancelling them while it does kills
        its manager thread and strands its workers before Python 3.12.

        With ``kill=True`` the worker processes are terminated outright
        instead of being left to finish their current jobs.  A plain
        ``shutdown(wait=False)`` only stops *new* work: a worker deep in
        a long simulation keeps burning CPU — and keeps the interpreter's
        exit hooks waiting — long after a ``KeyboardInterrupt`` told the
        user everything stopped.  The interrupt path wants the workers
        gone *now*.
        """
        with self._lock:
            if pool is not None and pool is not self._pool:
                return
            current, self._pool, self._workers = self._pool, None, None
        if current is None:
            return
        workers = list(getattr(current, "_processes", {}).values()) if kill else []
        try:
            # A broken pool is waited for, never cancelled (see above).
            current.shutdown(wait=pool is not None, cancel_futures=pool is None)
        except Exception:
            pass  # gone either way; 3.12 closes a broken pool's queues twice
        for proc in workers:
            try:
                proc.terminate()
            except Exception:
                pass  # already gone


_POOL = _PoolManager()


def pool_spawns() -> int:
    """How many worker pools this process has spawned so far."""
    return _POOL.spawns


def shutdown_pool(kill: bool = False) -> None:
    """Tear down the shared warm pool (end of a CLI run, or tests).

    ``kill=True`` terminates mid-job workers immediately — the
    ``KeyboardInterrupt`` path, where waiting for a long simulation to
    finish would leave the terminal apparently hung and the workers
    apparently leaked.
    """
    _POOL.discard(kill=kill)


# Fallback for exit paths that never reach the CLI's ``try/finally``
# (an exception between sweeps, a library caller forgetting to clean
# up): discard the warm pool at interpreter exit so its workers are not
# left running against a dead parent.  Idempotent — a pool already shut
# down by the CLI makes this a no-op.
atexit.register(shutdown_pool)


def runs_inline(job: SweepJob) -> bool:
    """Whether ``job`` runs in the caller's process even when a pool is
    available: analytic-tier points cost milliseconds, so shipping one to
    a pool worker would cost more in pickling and scheduling than the
    model itself."""
    return job.cfg.network_model == "analytic"


class _Submission(Future):
    """The caller's handle on one job handed to :meth:`Dispatcher.submit`.

    It resolves to the job's :class:`JobOutcome` once a success is in the
    cache.  :meth:`cancel` succeeds only while no worker has started the
    job: before the pool hands it out, or between a pool death and its
    retry.
    """

    def __init__(self, job: SweepJob, run: Callable, on_retry, lock) -> None:
        super().__init__()
        self.job = job
        self.run = run
        self.on_retry = on_retry
        #: Pool deaths this job has been through.
        self.attempts = 0
        #: The current pool attempt's future; ``None`` between attempts.
        self.inner: Optional[Future] = None
        self._lock = lock

    def running(self) -> bool:
        inner = self.inner
        return inner is not None and inner.running()

    def cancel(self) -> bool:
        with self._lock:
            if self.done():
                return self.cancelled()
            inner, self.inner = self.inner, None
            if inner is not None and not inner.cancel():
                self.inner = inner
                return False
            if not super().cancel():
                return False  # resolved meanwhile
            # What an executor does when it dequeues a cancelled job:
            # without it, ``as_completed`` and ``wait`` never hear of
            # the cancellation.
            self.set_running_or_notify_cancel()
            return True


class Dispatcher:
    """The one chain every sweep point goes through, in the batch
    executor and in the serve daemon alike.

    :meth:`lookup` answers a cache hit.  :meth:`submit` runs a miss:
    inline when :func:`runs_inline` says so or the caller has no pool
    (``workers=None``), otherwise on the process-wide warm pool.  A pool
    death costs the jobs it took one attempt each.  One retry thread per
    breakage (never the pool's callback thread) discards the dead pool,
    waits ``pool_backoff_s × attempt`` and resubmits them all to a
    respawned pool; a job is retried up to ``pool_retries`` times, after
    which the death is its ``BrokenExecutor`` failure.
    Every success is stored in the cache before its future resolves, so a
    later failure or cancellation cannot throw finished work away.

    ``run`` is the callable that executes one job (``execute_job`` as the
    caller's module sees it at submit time); a pool pickles it with the
    job.
    """

    def __init__(
        self,
        cache: Optional[ResultCache],
        workers: Optional[int] = None,
        pool_retries: int = 2,
        pool_backoff_s: float = 0.25,
    ) -> None:
        self.cache = cache
        #: Pool size, or ``None`` to run every job in this process.
        self.workers = workers
        self.pool_retries = pool_retries
        self.pool_backoff_s = pool_backoff_s
        self._lock = threading.Lock()
        #: Jobs lost with each broken pool, awaiting its one retry thread.
        self._lost_jobs: Dict[ProcessPoolExecutor, List[_Submission]] = {}
        self._lost_lock = threading.Lock()
        self._closed = False
        self._warned = False

    def lookup(self, job: SweepJob) -> Optional[JobOutcome]:
        """The cached outcome of ``job`` (telemetry ``source="cache"``),
        or ``None`` on a miss."""
        start = time.perf_counter()
        hit = self.cache.get(job) if self.cache is not None else None
        if hit is None:
            return None
        return JobOutcome(
            result=hit,
            telemetry=JobTelemetry(
                label=job.label,
                source="cache",
                wall_s=time.perf_counter() - start,
                events=hit.events_executed,
                peak_pending=hit.peak_pending_events,
                worker_pid=os.getpid(),
            ),
        )

    def submit(
        self,
        job: SweepJob,
        run: Callable[[SweepJob], JobOutcome],
        on_retry: Optional[Callable[[int], None]] = None,
    ) -> Future:
        """Run ``job`` with ``run``; the future resolves to its outcome.

        ``on_retry(attempt)`` is called (on a retry thread) each time a
        pool death sends the job round again.
        """
        sub = _Submission(job, run, on_retry, self._lock)
        if self.workers is None or runs_inline(job):
            self._resolve(sub, run(job))
        else:
            self._send(sub)
        return sub

    def warm(self) -> None:
        """Start the pool's worker processes now rather than at the first
        submission.  A ``ProcessPoolExecutor`` forks its workers at its
        first ``submit``, so one no-op job is run through it and waited
        for."""
        _POOL.acquire(self.workers).submit(os.getpid).result()

    def close(self) -> None:
        """Stop respawning: a pool death after this is its jobs' failure.
        An interrupted sweep or a stopping daemon kills the pool on
        purpose, and a retry must not fork a new one behind it."""
        with self._lock:
            self._closed = True

    # ------------------------------------------------------------------
    def _send(self, sub: _Submission) -> None:
        """Hand ``sub`` to the warm pool (its first attempt or a retry)."""
        with self._lock:
            if sub.cancelled():
                return  # pulled back while waiting for its retry
            pool = None
            if not (self._closed and sub.attempts):
                pool = _POOL.acquire(self.workers)
                try:
                    sub.inner = pool.submit(sub.run, sub.job)
                except (BrokenExecutor, RuntimeError):
                    # A warm pool's workers run while we submit, so a
                    # worker death (or a kill) can take the pool before
                    # this job reached it.
                    pass
            inner = sub.inner
        # Outside the lock: a callback may resolve ``sub`` at once.
        if pool is None:
            self._give_up(sub)
        elif inner is None:
            self._lost(sub, pool)
        else:
            inner.add_done_callback(functools.partial(self._on_done, sub, pool))

    def _on_done(self, sub: _Submission, pool: ProcessPoolExecutor, inner: Future) -> None:
        """Done callback of one pool attempt (runs on a pool thread)."""
        if inner.cancelled() and sub.inner is not inner:
            return  # pulled back by sub.cancel()
        try:
            outcome = inner.result()
        except (BrokenExecutor, CancelledError):
            # A worker died, or the pool was shut down under the job.
            self._lost(sub, pool)
            return
        except BaseException as exc:
            if exc is not inner.exception():
                raise  # an interrupt of this thread, not the job's
            # The job's own exception, e.g. it failed to pickle or raised
            # a BaseException (``SystemExit``) past execute_job's capture.
            # Raised out of this callback, it would leave the submission
            # unresolved.
            outcome = JobOutcome(failure=JobFailure.from_exception(sub.job, exc))
        else:
            if outcome.telemetry is not None:
                outcome.telemetry.retries = sub.attempts
        self._resolve(sub, outcome)

    def _lost(self, sub: _Submission, pool: ProcessPoolExecutor) -> None:
        """A pool death took ``sub``'s attempt.  The first job lost with
        ``pool`` starts the one retry thread of that breakage; the others
        join its group.  From Python 3.12 a broken pool runs its futures'
        callbacks holding its shutdown lock, so shutting the pool down
        there would deadlock, and sleeping out the backoff there would
        stall every other job the breakage took."""
        with self._lost_lock:
            group = self._lost_jobs.setdefault(pool, [])
            group.append(sub)
            if len(group) > 1:
                return
        threading.Thread(
            target=self._retry, args=(pool,), name="repro-pool-retry", daemon=True
        ).start()

    def _retry(self, pool: ProcessPoolExecutor) -> None:
        """Retry every job one breakage took: discard the dead pool once
        (waiting for it to fail all its jobs), warn once, back off once,
        and resubmit each job that has retries left.  Every job is
        resubmitted or resolved, whatever goes wrong on the way."""
        _POOL.discard(pool)
        with self._lost_lock:
            lost = self._lost_jobs.pop(pool)
        with self._lock:
            for sub in lost:
                sub.inner, sub.attempts = None, sub.attempts + 1
            retry = [s for s in lost if s.attempts <= self.pool_retries]
            retry = [] if self._closed else retry
        try:
            if retry:
                attempt = max(s.attempts for s in retry)
                print(
                    f"warning: worker pool died; respawning to retry "
                    f"{len(retry)} lost job(s) "
                    f"(attempt {attempt}/{self.pool_retries})",
                    file=sys.stderr,
                )
                for sub in retry:
                    if sub.on_retry is not None:
                        sub.on_retry(sub.attempts)
                time.sleep(self.pool_backoff_s * attempt)
        finally:
            for sub in lost:
                if sub in retry:
                    try:
                        self._send(sub)
                        continue
                    except Exception:
                        pass  # a failed respawn is this job's failure
                self._give_up(sub)

    def _give_up(self, sub: _Submission) -> None:
        failure = JobFailure(
            label=sub.job.label,
            exc_type="BrokenExecutor",
            message=f"worker pool died {sub.attempts} time(s) running this job",
            traceback="",
        )
        telemetry = JobTelemetry(
            label=sub.job.label,
            source="failed",
            worker_pid=os.getpid(),
            retries=max(sub.attempts - 1, 0),  # the last death was not retried
        )
        self._resolve(sub, JobOutcome(failure=failure, telemetry=telemetry))

    def _resolve(self, sub: _Submission, outcome: JobOutcome) -> None:
        """Salvage a success into the cache, then resolve ``sub``."""
        if outcome.ok and self.cache is not None:
            try:
                self.cache.put(sub.job, outcome.result)
            except OSError as exc:
                # The memory tier already holds the result; a failed
                # disk write (a full disk) must neither abort a sweep nor
                # take the daemon down.
                if not self._warned:
                    self._warned = True
                    print(
                        f"warning: could not write to the result cache "
                        f"({exc}); results are kept in memory only",
                        file=sys.stderr,
                    )
        try:
            sub.set_result(outcome)
        except InvalidStateError:
            pass  # cancelled while the pool was being closed
        # The attempt's done callback holds the pool; without this cycle
        # break a dead pool lives on until a garbage collection, which
        # may run in a freshly forked worker and deadlock it there.
        sub.inner = None


class SweepExecutor:
    """Runs sweep jobs serially or across worker processes.

    The executor is also the run context of a sweep: besides how jobs
    run (workers, cache, failure mode, progress, tracing, schedule), it
    carries the settings that shape the jobs an experiment builds through
    :meth:`job` (``fidelity``, ``scheduler``, the watchdog budgets
    ``max_events`` / ``wall_s``) and the ``obs`` bundle that observes
    in-process runs.  The CLI builds one per invocation from its flags;
    nothing is read from process-global state, so two sweeps with
    different executors can run side by side.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        keep_going: bool = False,
        pool_retries: int = 2,
        pool_backoff_s: float = 0.25,
        progress: Optional[ProgressListener] = None,
        trace_dir: Optional[str] = None,
        schedule: str = "lpt",
        costbook: Optional[CostBook] = None,
        fidelity: Optional[str] = None,
        scheduler: Optional[str] = None,
        max_events: Optional[int] = None,
        wall_s: Optional[float] = None,
        obs: Optional["Observability"] = None,
    ) -> None:
        if jobs is None:
            jobs = jobs_from_env()
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        if pool_retries < 0:
            raise ConfigError(f"pool_retries must be >= 0, got {pool_retries}")
        if schedule not in SCHEDULES:
            raise ConfigError(
                f"schedule must be one of {'/'.join(SCHEDULES)}, got {schedule!r}"
            )
        if fidelity is not None and fidelity not in NETWORK_MODELS:
            raise ConfigError(
                f"unknown network model {fidelity!r}; valid: {sorted(NETWORK_MODELS)}"
            )
        if scheduler is not None:
            from ..hmc.sched import SCHEDULERS

            if scheduler not in SCHEDULERS:
                raise ConfigError(
                    f"unknown scheduler {scheduler!r}; valid: {sorted(SCHEDULERS)}"
                )
        self.jobs = jobs
        self.cache = cache
        self.keep_going = keep_going
        self.pool_retries = pool_retries
        self.pool_backoff_s = pool_backoff_s
        #: Pool submission order for cache misses: ``"lpt"`` (default)
        #: submits longest-predicted-first, ``"fifo"`` in declaration
        #: order.  Merged rows are identical either way.
        self.schedule = schedule
        #: Cost predictions for LPT ordering, kept across this
        #: executor's sweeps.
        self.costbook = costbook if costbook is not None else CostBook()
        #: Per-sweep predictions, stamped onto landed telemetry.
        self._predictions: Optional[Dict[int, CostPrediction]] = None
        #: Optional :class:`~repro.obs.telemetry.ProgressListener`
        #: narrating job state transitions (see docs/observability.md).
        self.progress = progress
        #: Serializes progress events: ``retried`` comes from a pool thread.
        self._emit_lock = threading.Lock()
        #: When set, every executed job records a per-job Chrome trace
        #: into this directory (the caller merges them with
        #: :func:`~repro.obs.telemetry.merge_trace_dir`).
        self.trace_dir = trace_dir
        #: Fidelity tier and vault scheduler every :meth:`job` runs at
        #: (``None`` keeps what the experiment's config asks for).
        self.fidelity = fidelity
        self.scheduler = scheduler
        #: Watchdog budgets :meth:`job` fills into configs that set none.
        self.max_events = max_events
        self.wall_s = wall_s
        #: Observability bundle bound to every run; its sinks cannot
        #: cross a process boundary, so with one set every job runs here.
        self.obs = obs

    def job(
        self,
        arch: Union[str, ArchSpec],
        workload: Union[str, WorkloadRef],
        cfg: Optional[SystemConfig] = None,
        scale: float = 1.0,
        tag: Optional[str] = None,
        **run_kwargs: Any,
    ) -> SweepJob:
        """:func:`~repro.exec.jobs.job_for` plus this executor's overrides.

        ``fidelity`` and ``scheduler`` apply through
        :meth:`SystemConfig.with_overrides
        <repro.config.SystemConfig.with_overrides>`; both are part of the
        spec identity, so the jobs get their own cache keys.  The watchdog
        budgets fill only the limits the config leaves unset, and stay out
        of the identity.
        """
        cfg = (cfg or SystemConfig()).with_overrides(self.fidelity, self.scheduler)
        job = job_for(arch, workload, cfg, scale, tag, **run_kwargs)
        return job.with_watchdog(self.max_events, self.wall_s)

    # ------------------------------------------------------------------
    def map(self, jobs: Sequence[SweepJob]) -> List[Optional[RunResult]]:
        """Execute ``jobs``; results come back in submission order.

        Cached, parallel, and serial execution all yield identical lists:
        each simulation is a pure function of its job (packet ids are
        numbered per network), results are merged by index, and the cache
        returns a fresh unpickled copy per hit.

        Under fail-fast (the default) every entry is a
        :class:`RunResult` — a failed point raises
        :class:`~repro.errors.SweepError` instead.  Under ``keep_going``
        failed points come back as ``None`` (use :meth:`map_outcomes` for
        the structured failures).
        """
        return [o.result for o in self.map_outcomes(jobs)]

    def map_outcomes(self, jobs: Sequence[SweepJob]) -> List[JobOutcome]:
        """Like :meth:`map`, but returns the full per-job outcomes."""
        jobs = list(jobs)
        core = Dispatcher(self.cache, None, self.pool_retries, self.pool_backoff_s)
        outcomes: List[Optional[JobOutcome]] = []
        self._emit({"event": "begin", "total": len(jobs)})
        for i, job in enumerate(jobs):
            outcomes.append(core.lookup(job))
            kind = "submitted" if outcomes[i] is None else "cached"
            self._emit({"event": kind, "label": job.label, "index": i})

        pending = [i for i, o in enumerate(outcomes) if o is None]
        inline = [i for i in pending if runs_inline(jobs[i])]
        pooled = [i for i in pending if not runs_inline(jobs[i])]
        if self.jobs > 1 and len(pooled) > 1 and self.obs is None:
            core.workers = self.jobs
            pooled = self._plan(jobs, pooled)
        try:
            self._run(core, jobs, inline + pooled, outcomes)
        finally:
            core.close()

        # Completeness assertion: a dropped future must never leak a None
        # past the return type (it used to hide behind a `type: ignore`).
        lost = [jobs[i].label for i, o in enumerate(outcomes) if o is None]
        if lost:
            raise SweepError(
                f"sweep executor lost {len(lost)} job(s) without an outcome: "
                f"{', '.join(lost[:5])}"
                + (" ..." if len(lost) > 5 else "")
            )
        self._predictions = None
        done: List[JobOutcome] = outcomes  # type: ignore[assignment]
        self._emit(
            {
                "event": "end",
                "total": len(done),
                "cached": sum(
                    1
                    for o in done
                    if o.telemetry is not None and o.telemetry.source == "cache"
                ),
                "failed": sum(1 for o in done if not o.ok),
            }
        )
        return done

    # ------------------------------------------------------------------
    def _emit(self, event: Dict[str, Any]) -> None:
        """Send one progress event (no-op without a listener).

        Event timestamps (``t``) are seconds since this sweep's ``begin``.
        """
        if self.progress is None:
            return
        with self._emit_lock:
            if event["event"] == "begin":
                self._t0 = time.monotonic()
            event["t"] = round(
                time.monotonic() - getattr(self, "_t0", time.monotonic()), 4
            )
            self.progress.emit(event)

    def _submittable(self, job: SweepJob) -> SweepJob:
        """Stamp operational knobs (per-job tracing) onto a job copy."""
        if self.trace_dir is None:
            return job
        return dataclasses.replace(job, trace_dir=self.trace_dir)

    def _plan(
        self, jobs: List[SweepJob], pooled: List[int]
    ) -> List[int]:
        """Order the pool submissions per ``self.schedule``.

        Under LPT every pending point is costed through the
        :class:`~repro.exec.planner.CostBook` (observed wall, else
        analytic units x learned rates, else defaults) and submitted
        longest-predicted-first, so the sweep's slowest point cannot land
        on a worker last and stretch the makespan.  Predictions are
        remembered for the sweep: landed telemetry gets its
        ``predicted_wall_s`` stamped and successful runs are fed back
        into the book.
        """
        if self.schedule != "lpt":
            return pooled
        predictions = predict_costs(jobs, pooled, self.costbook)
        self._predictions = predictions
        order = lpt_order(pooled, predictions)
        self._emit(
            {
                "event": "planned",
                "schedule": self.schedule,
                "pending": len(order),
                "predicted_wall_s": round(
                    sum(p.wall_s for p in predictions.values()), 4
                ),
                "observed": sum(
                    1 for p in predictions.values() if p.source == "observed"
                ),
            }
        )
        return order

    def _run(
        self,
        core: Dispatcher,
        jobs: List[SweepJob],
        order: List[int],
        outcomes: List[Optional[JobOutcome]],
    ) -> None:
        """Submit ``order`` through ``core`` and merge outcomes by index.

        Jobs run in this process land as they are submitted; pooled ones
        are drained with ``as_completed``.  ``started`` is emitted at
        hand-off (a pool worker may dequeue the job slightly later); the
        landed telemetry pins the true wall time and worker pid.  Under
        fail-fast the first failure stops submission and cancels every
        job no worker has started; the running ones drain into the cache
        (salvage) before the raise, which names every failure that landed
        — all the jobs one pool breakage took, not just the first.
        """
        live: Dict[Future, int] = {}
        failures: List[JobFailure] = []
        run = execute_job
        if self.obs is not None:
            run = functools.partial(execute_job, obs=self.obs)

        def land(future: Future, i: int) -> None:
            if future.cancelled():
                return  # fail-fast pulled it back before it started
            outcome = outcomes[i] = future.result()
            self._landed(i, jobs[i], outcome)
            if not outcome.ok and not self.keep_going:
                if not failures:
                    for other in live:
                        other.cancel()
                failures.append(outcome.failure)

        for i in order:
            if failures:
                break
            self._emit({"event": "started", "label": jobs[i].label, "index": i})
            future = core.submit(
                self._submittable(jobs[i]),
                run,
                functools.partial(self._retried, jobs[i].label, i),
            )
            if future.done():
                land(future, i)
            else:
                live[future] = i
        for future in as_completed(live):
            land(future, live[future])
        if failures:
            self._fail_fast(failures)

    def _retried(self, label: str, i: int, attempt: int) -> None:
        self._emit(
            {"event": "retried", "label": label, "index": i, "attempt": attempt}
        )

    def _landed(self, i: int, job: SweepJob, outcome: JobOutcome) -> None:
        """Completion bookkeeping: prediction accounting + narration."""
        t = outcome.telemetry
        prediction = (
            self._predictions.get(i) if self._predictions is not None else None
        )
        if t is not None and prediction is not None:
            t.predicted_wall_s = prediction.wall_s
            if outcome.ok:
                self.costbook.observe(job, t, units=prediction.units)
        if outcome.ok:
            self._emit(
                {
                    "event": "completed",
                    "label": job.label,
                    "index": i,
                    "wall_s": round(t.wall_s, 4) if t else None,
                    "events": t.events if t else None,
                    "events_per_sec": round(t.events_per_sec, 1) if t else None,
                    "worker_pid": t.worker_pid if t else None,
                    "retries": t.retries if t else 0,
                }
            )
        else:
            self._emit(
                {
                    "event": "failed",
                    "label": job.label,
                    "index": i,
                    "wall_s": outcome.failure.wall_s,
                    "exc_type": outcome.failure.exc_type,
                    "message": outcome.failure.message,
                }
            )

    def _fail_fast(self, failures: List[JobFailure]) -> None:
        if self.progress is not None:
            self.progress.close()  # finish any partial TTY line first
        first = failures[0]
        names = ", ".join(repr(f.label) for f in failures)
        raise SweepError(
            f"sweep point{'s' if len(failures) > 1 else ''} {names} failed: "
            f"{first.exc_type}: {first.message} "
            "(completed results were salvaged into the cache; "
            "use --keep-going to finish the remaining points)",
            failures=failures,
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cache = "on" if self.cache is not None else "off"
        mode = "keep-going" if self.keep_going else "fail-fast"
        return f"SweepExecutor(jobs={self.jobs}, cache={cache}, {mode})"
