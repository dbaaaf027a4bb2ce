"""Sweep jobs: the picklable unit of work the executor fans out.

A :class:`SweepJob` is one canonical
:class:`~repro.system.spec.SystemSpec` plus a display tag: the spec
describes one ``run_workload`` invocation as *data* (architecture spec,
workload reference, system config, extra keyword arguments) so it can
cross a process boundary and be hashed into a cache key.  Workloads
themselves are not picklable — their CTA programs are closures — so the
spec carries a :class:`~repro.system.spec.WorkloadRef` that rebuilds the
workload inside the worker, either from the Table II registry
(name + scale) or from an explicit ``module:function`` factory.

Failure is a first-class outcome: :func:`execute_job` never lets a job's
exception escape the worker.  It returns a :class:`JobOutcome` carrying
either the :class:`~repro.system.metrics.RunResult` or a picklable
:class:`JobFailure` (label, exception type/message, traceback text), so
one bad point crossing the process boundary can neither poison the pool
protocol with an unpicklable exception nor abort the merge loop before
its siblings' results are salvaged.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import time
import traceback as _traceback
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple, Union

from ..config import SystemConfig
from ..obs.telemetry import JobTelemetry, write_worker_trace
from ..system.configs import ArchSpec
from ..system.metrics import RunResult
from ..system.spec import SystemSpec, WorkloadRef

__all__ = [
    "JobFailure",
    "JobOutcome",
    "JobTelemetry",
    "SweepJob",
    "WorkloadRef",
    "SystemSpec",
    "execute_job",
    "job_for",
]


@dataclass(frozen=True)
class SweepJob:
    """One independent simulation point of a sweep.

    ``tag`` is a free-form label for progress display and debugging; it is
    *not* part of the cache identity (the :class:`SystemSpec` is).
    ``trace_dir`` is an operational knob the executor stamps on before
    submission: when set, the worker records a per-job Chrome trace into
    that directory for the parent to merge (never hashed, never compared).
    """

    system: SystemSpec
    tag: Optional[str] = field(default=None, compare=False)
    trace_dir: Optional[str] = field(default=None, compare=False)

    @classmethod
    def make(
        cls,
        spec: ArchSpec,
        workload: WorkloadRef,
        cfg: SystemConfig,
        tag: Optional[str] = None,
        **run_kwargs: Any,
    ) -> "SweepJob":
        """Ergonomic constructor: keyword arguments become ``run_kwargs``."""
        return cls(
            system=SystemSpec.make(spec, workload, cfg, **run_kwargs), tag=tag
        )

    # -- the spec's pieces, exposed flat for sweep code -----------------
    @property
    def spec(self) -> ArchSpec:
        return self.system.arch

    @property
    def workload(self) -> WorkloadRef:
        return self.system.workload

    @property
    def cfg(self) -> SystemConfig:
        return self.system.cfg

    @property
    def run_kwargs(self) -> Tuple[Tuple[str, Any], ...]:
        return self.system.run_kwargs

    @property
    def label(self) -> str:
        return self.tag or self.system.label

    def with_watchdog(
        self, max_events: Optional[int] = None, wall_s: Optional[float] = None
    ) -> "SweepJob":
        """This job with watchdog budgets filled into the config fields it
        leaves unset (see :meth:`SystemConfig.with_watchdog`).  The
        fields are outside the spec identity, so the cache key holds."""
        cfg = self.cfg.with_watchdog(max_events, wall_s)
        if cfg is self.cfg:
            return self
        return dataclasses.replace(
            self, system=dataclasses.replace(self.system, cfg=cfg)
        )


def job_for(
    arch: Union[str, ArchSpec],
    workload: Union[str, WorkloadRef],
    cfg: Optional[SystemConfig] = None,
    scale: float = 1.0,
    tag: Optional[str] = None,
    **run_kwargs: Any,
) -> SweepJob:
    """Build one sweep job from its canonical spec pieces.

    ``arch`` may be a Table III / registered architecture name or an
    explicit :class:`ArchSpec`; ``workload`` a Table II name (wrapped in
    a :class:`WorkloadRef` at ``scale``) or an explicit ref.  Keyword
    arguments become the job's ``run_kwargs``.  The job is exactly what
    the arguments say; :meth:`SweepExecutor.job
    <repro.exec.executor.SweepExecutor.job>` layers an executor's
    ``--fidelity``/``--scheduler``/watchdog settings on top.
    """
    if isinstance(workload, str):
        workload = WorkloadRef(workload, scale)
    return SweepJob(
        system=SystemSpec.make(arch, workload, cfg, **run_kwargs), tag=tag
    )


@dataclass(frozen=True)
class JobFailure:
    """A sweep point's failure, reduced to plain (picklable) strings.

    ``wall_s`` records how long the point ran before dying, so a
    slow-then-crash sweep point (e.g. a watchdog trip after minutes of
    spinning) is distinguishable from a fast config error in the
    ``--keep-going`` failure table.
    """

    label: str
    exc_type: str
    message: str
    traceback: str
    wall_s: Optional[float] = None

    @classmethod
    def from_exception(
        cls,
        job: SweepJob,
        exc: BaseException,
        wall_s: Optional[float] = None,
    ) -> "JobFailure":
        return cls(
            label=job.label,
            exc_type=type(exc).__name__,
            message=str(exc),
            traceback="".join(
                _traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
            wall_s=wall_s,
        )

    def summary(self) -> str:
        text = f"{self.label}: {self.exc_type}: {self.message}"
        if self.wall_s is not None:
            text += f" (after {self.wall_s:.2f}s)"
        return text


@dataclass(frozen=True)
class JobOutcome:
    """What one :func:`execute_job` call produced: a result *or* a failure.

    ``telemetry`` describes *how* the point executed (flight-recorder
    record); it is excluded from equality so outcome comparisons stay
    about the simulated data.
    """

    result: Optional[RunResult] = None
    failure: Optional[JobFailure] = None
    telemetry: Optional[JobTelemetry] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if (self.result is None) == (self.failure is None):
            raise ValueError("a JobOutcome carries exactly one of result/failure")

    @property
    def ok(self) -> bool:
        return self.failure is None


def execute_job(job: SweepJob, obs=None) -> JobOutcome:
    """Run one sweep job to completion (in this process).

    Any exception — a bad workload reference, a config error, a watchdog
    trip — is captured as a :class:`JobFailure` rather than raised, so a
    pool worker always hands back a picklable, attributable outcome.

    Every outcome carries a :class:`~repro.obs.telemetry.JobTelemetry`
    flight-recorder record; when the job asks for tracing
    (``job.trace_dir``), the run is traced and the per-job Chrome trace is
    dumped for the parent to merge (tracing records the identical event
    stream, so results are byte-equal to an untraced run).  Otherwise an
    ``obs`` bundle, if given, observes the run.
    """
    if job.trace_dir is not None:
        from ..obs.bind import Observability

        obs = Observability(trace=True)
    collections = _gc_collections()
    start = time.perf_counter()
    try:
        result = job.system.run(obs=obs)
    except Exception as exc:
        wall = time.perf_counter() - start
        return JobOutcome(
            failure=JobFailure.from_exception(job, exc, wall_s=wall),
            telemetry=JobTelemetry(
                label=job.label,
                source="failed",
                wall_s=wall,
                worker_pid=os.getpid(),
                gc_collections=_gc_collections() - collections,
            ),
        )
    wall = time.perf_counter() - start
    if job.trace_dir is not None:
        write_worker_trace(obs.tracer, job.trace_dir, job.label)
    source = "analytic" if job.cfg.network_model == "analytic" else "run"
    return JobOutcome(
        result=result,
        telemetry=JobTelemetry(
            label=job.label,
            source=source,
            wall_s=wall,
            events=result.events_executed,
            peak_pending=result.peak_pending_events,
            worker_pid=os.getpid(),
            gc_collections=_gc_collections() - collections,
        ),
    )


def _gc_collections() -> int:
    """Cyclic-GC collections so far in this process, all generations."""
    return sum(generation["collections"] for generation in gc.get_stats())


def _worker_initializer() -> None:
    """Executed once in every pool worker.

    Everything a job needs travels with it (watchdog limits sit in its
    config), so a worker sets up no run state.  The initializer
    pre-imports the heavy modules every packet/flit job needs (system
    builder/runner, the workload suite, the topology registry), so a
    worker pays import cost once at spawn — not inside its first job's
    measured wall time.  Under fork these are near-free
    (inherited); under spawn they are the warm-pool win.
    """
    import signal

    # The serving daemon maps SIGTERM and SIGINT to KeyboardInterrupt so
    # `kill` and Ctrl-C take the clean-shutdown path; a forked worker
    # inherits that handler and would die with a spurious traceback when
    # the pool is terminated.  A worker has no shutdown of its own —
    # default kill — and ignores SIGINT: Ctrl-C at a terminal signals the
    # whole process group, and the parent's shutdown decides whether a
    # running job drains into the cache or is killed.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _exit_with_parent()

    from ..network import topologies  # noqa: F401
    from ..system import builder, run  # noqa: F401
    from ..workloads import suite  # noqa: F401


def _exit_with_parent() -> None:
    """End this worker as soon as the process that owns its pool is gone.

    A worker holds both ends of the pool's pipes, so a parent killed
    without a shutdown (SIGKILL, a crash) never shows it an EOF: it
    would block in its queue read forever.  A daemon thread waits on the
    parent's sentinel instead and exits the worker when it fires.
    """
    import multiprocessing
    import threading
    from multiprocessing.connection import wait

    parent = multiprocessing.parent_process()
    if parent is None:
        return

    def watch() -> None:
        wait([parent.sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()
