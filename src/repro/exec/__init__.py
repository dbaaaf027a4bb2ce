"""repro.exec — the sweep performance layer.

Three cooperating pieces make the experiment suite scale:

- :class:`~repro.exec.executor.SweepExecutor` fans independent sweep
  points out over a process pool (``--jobs N`` / ``REPRO_JOBS``, or
  ``auto`` for cpu_count - 1) with deterministic submission-order
  merging and a serial default; the pool itself is kept warm in a
  process-wide manager and reused across sweeps and experiments;
- :mod:`~repro.exec.planner` predicts each pending point's cost with
  the analytic tier plus a self-improving :class:`CostBook` persisted
  next to the cache, submits cache misses longest-predicted-first
  (``--schedule lpt``, the default) to minimize pool makespan, and
  powers the opt-in ``--prefilter`` pruning of dominated exploration
  points;
- :class:`~repro.exec.cache.ResultCache` keys results on a content hash
  of (spec, config, workload, code version) and short-circuits repeated
  simulations within and across experiments.

Correctness bar: serial, parallel, and cached executions of the same
sweep produce identical rows (every run is a pure function of its job),
under either submission schedule.

Failure is a first-class outcome: workers return
:class:`~repro.exec.jobs.JobOutcome` (result or picklable
:class:`~repro.exec.jobs.JobFailure`), successes are cached as they land,
dead pools are respawned with only the lost jobs resubmitted, and
fail-fast vs keep-going decides whether the first failure raises
:class:`~repro.errors.SweepError` or the sweep finishes with a failure
report (see docs/robustness.md).
"""

from .cache import (
    CACHE_DIR_ENV,
    CACHE_MAX_MB_ENV,
    CacheStats,
    ResultCache,
    cache_max_mb_from_env,
    code_version,
    job_fingerprint,
    job_key,
    process_cache_stats,
)
from .executor import (
    JOBS_ENV,
    SweepExecutor,
    auto_jobs,
    jobs_from_env,
    pool_spawns,
    shutdown_pool,
)
from .jobs import (
    JobFailure,
    JobOutcome,
    JobTelemetry,
    SweepJob,
    SystemSpec,
    WorkloadRef,
    execute_job,
    job_for,
)
from .planner import (
    SCHEDULES,
    CostBook,
    CostPrediction,
    analytic_estimate,
    lpt_order,
    predict_costs,
    prefilter_jobs,
)

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_MAX_MB_ENV",
    "CacheStats",
    "cache_max_mb_from_env",
    "CostBook",
    "CostPrediction",
    "JOBS_ENV",
    "JobFailure",
    "JobOutcome",
    "JobTelemetry",
    "ResultCache",
    "SCHEDULES",
    "SweepExecutor",
    "SweepJob",
    "SystemSpec",
    "WorkloadRef",
    "analytic_estimate",
    "auto_jobs",
    "code_version",
    "execute_job",
    "job_for",
    "job_fingerprint",
    "job_key",
    "jobs_from_env",
    "lpt_order",
    "pool_spawns",
    "predict_costs",
    "prefilter_jobs",
    "process_cache_stats",
    "shutdown_pool",
]
