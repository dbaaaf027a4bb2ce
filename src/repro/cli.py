"""Command-line interface: ``repro <experiment>`` or ``python -m repro``.

Examples::

    repro list                 # show available experiments
    repro fig14                # reproduce the Fig. 14 sweep and print it
    repro fig14 --scale 0.1    # quicker, smaller inputs
    repro fig14 --jobs 4       # fan the sweep over 4 worker processes
    repro fig14 --cache        # reuse results across repeated invocations
    repro run KMN --arch UMN   # run one workload on one architecture
    repro run VEC --arch UMN --trace t.json --timeseries --profile
    repro run KMN --arch UMN --dump-spec spec.json   # export, don't simulate
    repro run --spec spec.json # execute a canonical SystemSpec file
    repro all --jobs 8         # run every experiment (slow)

Performance flags (``all`` and every experiment subcommand):

- ``--jobs N`` — run the sweep's independent simulations on N worker
  processes (default 1 = serial; results are identical either way).
  ``auto`` resolves to cpu_count - 1.  ``REPRO_JOBS=N`` (or ``auto``)
  is the environment equivalent.
- ``--schedule {fifo,lpt}`` — pool submission order for cache misses:
  ``lpt`` (default) predicts each point's cost with the analytic tier +
  CostBook and submits longest-first to minimize makespan; ``fifo``
  submits in declaration order.  Rows are identical either way.
- ``--prefilter [RATIO]`` (``ext-*`` exploration sweeps only) — skip
  points whose analytic predicted runtime exceeds RATIO x their
  workload group's best (default 3.0); every pruned point is reported
  in telemetry.  Never available on figure reproductions.
- ``--cache [DIR]`` — memoize simulation results keyed on (config,
  workload, code version); with DIR the cache persists on disk across
  invocations (``REPRO_CACHE_DIR`` is the environment equivalent).
  The scheduling CostBook persists as ``costbook.json`` next to it.

Sweep telemetry flags (``all`` and every experiment subcommand; see
docs/observability.md "Sweep telemetry & flight recorder"):

- ``--progress MODE`` — live per-job progress: ``tty`` renders a one-line
  progress bar with an ETA, ``jsonl`` streams one JSON event per job
  state transition on stderr (machine-readable), ``none`` is silent, and
  ``auto`` (default) picks tty when stderr is a terminal.
- ``--runlog DIR`` — persist the sweep's flight recorder as
  ``RUNLOG_<experiment>.jsonl`` (per-job wall time, events, events/sec,
  cache provenance, retries, worker pid + a summary record with the
  invocation's wall clock, row count, fidelity, schedule and code version).
  ``--progress jsonl`` implies ``--runlog .`` unless overridden.

Robustness flags (``run``, ``all``, and every experiment subcommand; see
docs/robustness.md):

- ``--keep-going`` — finish the whole sweep even if some points fail;
  healthy rows print (and cache) normally, failed points are reported in
  a failure table and the exit code is 3. Default is fail-fast: the
  first failure aborts the sweep (exit 1) after salvaging every already
  completed result into the cache.
- ``--max-events N`` — livelock watchdog: abort any single simulation
  that executes more than N events (default 1e9; 0 disables).
- ``--wall-limit S`` — abort any single simulation after S wall-clock
  seconds (off by default; checked between event slices).

Observability flags (``run`` and every experiment subcommand):

- ``--trace OUT.json`` — record a Chrome trace-event timeline (kernels,
  CTAs, memcpies, packets, vault service); open it in Perfetto.  On a
  parallel sweep (``--jobs N``) every pool worker records per-job traces
  and the parent merges them into one timeline (one trace process per
  worker, one thread lane per job).
- ``--timeseries [US]`` — sample congestion gauges every US simulated
  microseconds (default 5); ``run`` surfaces them in ``--report``.
- ``--profile`` — wall-clock profile of the event loop, printed at exit.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import shutil
import sys
import tempfile
import time
from typing import List, Optional

from .config import NETWORK_MODELS
from .errors import ConfigError, SimulationError, SweepError
from .hmc.sched import SCHEDULERS
from .exec import (
    CACHE_DIR_ENV,
    SCHEDULES,
    ResultCache,
    SweepExecutor,
    auto_jobs,
    cache_max_mb_from_env,
    code_version,
    jobs_from_env,
    pool_spawns,
    process_cache_stats,
    shutdown_pool,
)
from .experiments import EXPERIMENTS
from .obs import Observability, make_progress
from .obs.telemetry import merge_trace_dir, runlog_path, write_runlog
from .system.configs import available_archs, get_spec
from .system.report import system_report
from .system.run import run_workload_detailed
from .system.spec import SystemSpec, WorkloadRef
from .workloads.suite import WORKLOAD_NAMES

#: Experiments whose runner takes a ``scale`` parameter.
_SCALED = {
    "fig10",
    "fig14",
    "fig16",
    "fig17",
    "fig18",
    "sec3b",
    "ext-mapping",
    "ext-sched",
}

#: CLI commands whose RUNLOG name differs from the command, aligned with
#: the benchmark modules (``bench_fig07_remote_access``).
_RUNLOG_ALIAS = {"fig7": "fig07"}


def _make_obs(args) -> Optional[Observability]:
    """Build the observability bundle an argv namespace asks for."""
    trace = getattr(args, "trace", None)
    timeseries = getattr(args, "timeseries", None)
    profile = getattr(args, "profile", False)
    if not trace and timeseries is None and not profile:
        return None
    return Observability(
        trace=bool(trace), sample_interval_us=timeseries, profile=profile
    )


def _finish_obs(obs: Optional[Observability], args) -> None:
    """Flush trace/profile sinks after the command ran."""
    if obs is None:
        return
    trace_path = getattr(args, "trace", None)
    obs.finish(trace_path=trace_path)
    if trace_path:
        print(f"[trace: {obs.tracer.num_events} events -> {trace_path}]")
    if obs.profiler is not None:
        print(obs.profiler.render())


def _positive_us(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"interval must be a positive number of microseconds, got {text}"
        )
    return value


def _positive_jobs(text: str) -> int:
    if text.strip().lower() == "auto":
        return auto_jobs()
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--jobs needs a worker count >= 1 or 'auto', got {text}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"--jobs needs a worker count >= 1 or 'auto', got {text}"
        )
    return value


def _prefilter_ratio(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--prefilter needs a ratio > 1, got {text}"
        ) from None
    if value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"--prefilter needs a ratio > 1, got {text}"
        )
    return value


def _fidelity(text: str) -> str:
    """Validate ``--fidelity`` with the same message the config raises."""
    if text not in NETWORK_MODELS:
        raise argparse.ArgumentTypeError(
            f"unknown network model {text!r}; valid: {sorted(NETWORK_MODELS)}"
        )
    return text


def _add_fidelity_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fidelity",
        type=_fidelity,
        default=None,
        metavar="TIER",
        help="fidelity tier to run at: packet (event-driven, the default), "
        "flit (wormhole/VC validation engine), or analytic (calibrated "
        "capacity model, milliseconds per row; see docs/performance.md)",
    )


def _scheduler(text: str) -> str:
    """Validate ``--scheduler`` with the same message the config raises."""
    if text not in SCHEDULERS:
        raise argparse.ArgumentTypeError(
            f"unknown scheduler {text!r}; valid: {sorted(SCHEDULERS)}"
        )
    return text


def _add_scheduler_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scheduler",
        type=_scheduler,
        default=None,
        metavar="POLICY",
        help="vault scheduling policy: "
        + ", ".join(sorted(SCHEDULERS))
        + " (default: frfcfs; rejected with --fidelity analytic, which "
        "is FR-FCFS-calibrated only)",
    )


def _add_perf_flags(parser: argparse.ArgumentParser) -> None:
    _add_fidelity_flag(parser)
    _add_scheduler_flag(parser)
    parser.add_argument(
        "--jobs",
        type=_positive_jobs,
        default=None,
        metavar="N",
        help="run sweep points on N worker processes, or 'auto' for "
        "cpu_count-1 (default: REPRO_JOBS or serial; results are "
        "identical either way)",
    )
    parser.add_argument(
        "--schedule",
        choices=SCHEDULES,
        default="lpt",
        help="pool submission order for cache misses: lpt (default) "
        "predicts each point's cost and submits longest-first to "
        "minimize makespan, fifo submits in declaration order; merged "
        "rows are identical either way",
    )
    parser.add_argument(
        "--cache",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help="memoize simulation results; with DIR, persist them on disk "
        "across invocations (default: REPRO_CACHE_DIR or off)",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="finish the sweep past failed points and report a failure "
        "table (exit code 3) instead of failing fast on the first error",
    )
    parser.add_argument(
        "--progress",
        choices=("auto", "tty", "jsonl", "none"),
        default="auto",
        help="live sweep progress: tty = one-line bar with ETA, jsonl = "
        "one JSON event per job state transition on stderr, auto "
        "(default) = tty only when stderr is a terminal",
    )
    parser.add_argument(
        "--runlog",
        nargs="?",
        const=".",
        default=None,
        metavar="DIR",
        help="write the sweep flight recorder to "
        "DIR/RUNLOG_<experiment>.jsonl (default DIR: current directory; "
        "implied by --progress jsonl)",
    )


def _add_robustness_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-events",
        type=int,
        default=None,
        metavar="N",
        help="livelock watchdog: abort any simulation that executes more "
        "than N events (default: 1e9; 0 disables)",
    )
    parser.add_argument(
        "--wall-limit",
        type=float,
        default=None,
        metavar="S",
        help="livelock watchdog: abort any single simulation running "
        "longer than S wall-clock seconds (default: off)",
    )


def _make_executor(args, obs: Optional[Observability] = None):
    """The one :class:`SweepExecutor` an invocation runs its sweeps on,
    built from the flags, ``REPRO_JOBS`` and ``REPRO_CACHE_DIR``.

    Returns ``(executor, trace_dir)``: on a parallel trace-only sweep the
    parent's bundle is replaced by per-worker job traces collected under
    ``trace_dir`` (merged by :func:`_merge_sweep_trace` afterwards), so
    ``executor.obs`` is the bundle the command should actually finish.
    """
    jobs = getattr(args, "jobs", None)
    if jobs is None:
        jobs = jobs_from_env(default=1)
    trace_dir = None
    if obs is not None and jobs > 1:
        if (
            getattr(args, "trace", None)
            and obs.sample_interval_ps == 0
            and obs.profiler is None
        ):
            # Trace-only parallel sweep: every worker records per-job
            # Chrome traces into trace_dir; the parent merges them into
            # one Perfetto timeline after the sweep (docs/observability.md).
            trace_dir = tempfile.mkdtemp(prefix="repro-sweep-trace-")
            obs = None
        else:
            # A sampler/profiler cannot cross the pool boundary; rather
            # than silently produce empty output, keep the sweep in-process.
            print(
                "warning: --timeseries/--profile need in-process execution; "
                f"running serially instead of with {jobs} workers",
                file=sys.stderr,
            )
            jobs = 1
    cache_dir = getattr(args, "cache", None)
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_DIR_ENV, "").strip() or None
    cache = None
    if cache_dir is not None:
        cache = ResultCache(cache_dir or None, max_mb=cache_max_mb_from_env())
    executor = SweepExecutor(
        jobs=jobs,
        cache=cache,
        keep_going=getattr(args, "keep_going", False),
        progress=make_progress(getattr(args, "progress", "none")),
        trace_dir=trace_dir,
        schedule=getattr(args, "schedule", "lpt"),
        fidelity=getattr(args, "fidelity", None),
        scheduler=getattr(args, "scheduler", None),
        max_events=getattr(args, "max_events", None),
        wall_s=getattr(args, "wall_limit", None),
        prefilter=getattr(args, "prefilter", None),
        obs=obs,
    )
    return executor, trace_dir


def _merge_sweep_trace(trace_dir: str, out_path: str) -> None:
    """Fold the workers' per-job traces into the requested --trace file."""
    info = merge_trace_dir(trace_dir, out_path)
    shutil.rmtree(trace_dir, ignore_errors=True)
    print(
        f"[trace: merged {info['files']} job trace(s) from "
        f"{info['workers']} worker(s) -> {out_path}]"
    )


def _runlog_dir(args) -> Optional[str]:
    """Where the flight recorder lands (--runlog; jsonl progress implies
    the current directory so the machine-readable artifacts pair up)."""
    runlog = getattr(args, "runlog", None)
    if runlog is None and getattr(args, "progress", None) == "jsonl":
        runlog = "."
    return runlog


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="OUT.json",
        help="write a Chrome trace-event timeline (open in Perfetto)",
    )
    parser.add_argument(
        "--timeseries",
        nargs="?",
        const=0.25,
        type=_positive_us,
        default=None,
        metavar="US",
        help="sample congestion gauges every US simulated microseconds "
        "(default 0.25)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a wall-clock profile of the event loop",
    )


def _run_experiment(
    name: str,
    scale: Optional[float],
    executor: SweepExecutor,
    save: Optional[str] = None,
    runlog: Optional[str] = None,
) -> int:
    """Run one experiment on ``executor``; returns the exit code (0 ok,
    1 fail-fast sweep abort, 3 completed-with-failures under
    --keep-going)."""
    runner = EXPERIMENTS[name]
    kwargs = {}
    if "executor" in inspect.signature(runner).parameters:
        kwargs["executor"] = executor
    if scale is not None:
        if name in _SCALED:
            kwargs["scale"] = scale
        else:
            print(
                f"warning: {name} does not take --scale; ignoring --scale={scale}",
                file=sys.stderr,
            )
    start = time.time()
    try:
        result = runner(**kwargs)
    except SweepError as exc:
        print(f"error: {name} aborted: {exc}", file=sys.stderr)
        for failure in exc.failures:
            print(failure.traceback, file=sys.stderr, end="")
        return 1
    except ConfigError as exc:
        # e.g. a non-default --scheduler combined with --fidelity analytic
        # is rejected when the first job's config is constructed.
        print(f"error: {name}: {exc}", file=sys.stderr)
        return 2
    wall = time.time() - start
    print(result.render())
    jobs = executor.jobs
    cache = executor.cache
    note = f" with {jobs} workers" if jobs > 1 else ""
    if cache is not None and (cache.stats.hits or cache.stats.misses):
        note += f" ({cache.stats.as_note()})"
    print(f"[{name} completed in {wall:.1f}s{note}]")
    spawns = pool_spawns() if jobs > 1 else None
    if result.telemetry:
        s = result.flight_summary(pool_spawns=spawns)
        analytic_note = (
            f"{s['analytic']} analytic, " if s.get("analytic") else ""
        )
        pruned_note = f"{s['pruned']} pruned, " if s.get("pruned") else ""
        extras = ""
        prediction = s.get("prediction")
        if prediction:
            extras += (
                ", prediction "
                f"{prediction['geomean_actual_over_predicted']:.2f}x "
                "actual/predicted"
            )
        if spawns:
            extras += f", {spawns} pool spawn(s)"
        print(
            f"[flight: {s['ran']} ran, {analytic_note}{pruned_note}"
            f"{s['cached']} cached, "
            f"{s['failed']} failed, {s['events']} events, "
            f"{s['events_per_sec']:.0f} ev/s, "
            f"peak pending {s['peak_pending']}{extras}]"
        )
    if save:
        result.save(save)
        print(f"[saved to {save}]")
    if runlog:
        path = write_runlog(
            str(runlog_path(runlog, _RUNLOG_ALIAS.get(name, name))),
            name,
            result.telemetry,
            failures=result.failures,
            cache_stats=process_cache_stats(),
            pool_spawns=spawns,
            wall_s=round(wall, 4),
            rows=len(result.rows),
            fidelity=executor.fidelity or "packet",
            schedule=executor.schedule,
            code_version=code_version(),
        )
        print(f"[runlog -> {path}]")
    if result.failures:
        print(
            f"error: {name} completed with {len(result.failures)} failed "
            "sweep point(s); healthy rows above are cached and reusable",
            file=sys.stderr,
        )
        return 3
    return 0


def _run_one(args) -> int:
    """The ``repro run`` subcommand: one workload on one architecture,
    from flags or from a canonical SystemSpec file."""
    if args.spec:
        try:
            spec = SystemSpec.load(args.spec)
        except (OSError, ValueError, ConfigError) as exc:
            print(f"error: cannot load spec {args.spec!r}: {exc}", file=sys.stderr)
            return 2
    elif args.workload:
        spec = SystemSpec.make(
            get_spec(args.arch), WorkloadRef(args.workload, args.scale)
        )
    else:
        print("error: give a workload or --spec FILE.json", file=sys.stderr)
        return 2
    try:
        cfg = spec.cfg
        if args.fidelity and cfg.network_model != args.fidelity:
            cfg = cfg.scaled(network_model=args.fidelity)
        scheduler = getattr(args, "scheduler", None)
        if scheduler and cfg.hmc.scheduler != scheduler:
            cfg = cfg.scaled(
                hmc=dataclasses.replace(cfg.hmc, scheduler=scheduler)
            )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg is not spec.cfg:
        spec = SystemSpec.make(
            spec.arch, spec.workload, cfg, **dict(spec.run_kwargs)
        )
    if args.dump_spec:
        spec.save(args.dump_spec)
        print(f"[spec {spec.label} -> {args.dump_spec}]")
        return 0
    obs = _make_obs(args)
    try:
        result, system = run_workload_detailed(
            spec.arch,
            spec.workload.build(),
            cfg=spec.cfg.with_watchdog(args.max_events, args.wall_limit),
            obs=obs,
            **dict(spec.run_kwargs),
        )
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for key, value in result.as_row().items():
        print(f"{key:20s} {value}")
    if args.report:
        if system is None:
            print(
                "error: --report needs an event-engine run; the analytic "
                "tier builds no system (use --fidelity packet or flit)",
                file=sys.stderr,
            )
            return 2
        with open(args.report, "w") as handle:
            json.dump(system_report(system), handle, indent=2)
        print(f"[report -> {args.report}]")
    _finish_obs(obs, args)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Multi-GPU System Design with Memory Networks' "
            "(MICRO 2014)"
        ),
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list experiments and workloads")

    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"reproduce {name}")
        p.add_argument("--scale", type=float, default=None, help="problem scale")
        p.add_argument(
            "--save", default=None, help="export the rows (.csv or .json)"
        )
        _add_perf_flags(p)
        if name.startswith("ext-"):
            # Exploration sweeps only: figure runners feed every row into
            # a merge loop and cannot tolerate pruned holes, so they
            # never get the flag (docs/performance.md).
            p.add_argument(
                "--prefilter",
                nargs="?",
                const=3.0,
                type=_prefilter_ratio,
                default=None,
                metavar="RATIO",
                help="skip points whose analytic predicted runtime exceeds "
                "RATIO x their workload group's best (default 3.0); every "
                "pruned point is reported in notes and telemetry",
            )
        _add_robustness_flags(p)
        _add_obs_flags(p)

    p_all = sub.add_parser("all", help="run every experiment")
    p_all.add_argument("--scale", type=float, default=None)
    _add_perf_flags(p_all)
    _add_robustness_flags(p_all)
    _add_obs_flags(p_all)

    p_run = sub.add_parser("run", help="run one workload on one architecture")
    p_run.add_argument("workload", nargs="?", choices=WORKLOAD_NAMES + ["VEC"])
    p_run.add_argument("--arch", default="UMN", choices=available_archs())
    p_run.add_argument("--scale", type=float, default=0.25)
    p_run.add_argument(
        "--spec",
        default=None,
        metavar="FILE.json",
        help="execute the canonical SystemSpec in FILE.json instead of "
        "building one from workload/--arch/--scale",
    )
    p_run.add_argument(
        "--dump-spec",
        default=None,
        metavar="OUT.json",
        help="write the run's canonical SystemSpec JSON and exit without "
        "simulating (replayable with --spec)",
    )
    p_run.add_argument(
        "--report",
        default=None,
        metavar="OUT.json",
        help="write the full system_report() (includes timeseries when "
        "--timeseries is on)",
    )
    _add_fidelity_flag(p_run)
    _add_scheduler_flag(p_run)
    _add_robustness_flags(p_run)
    _add_obs_flags(p_run)

    def _add_address_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--socket",
            default=None,
            metavar="PATH",
            help="Unix socket the server listens on (default: "
            "REPRO_SERVE_SOCKET or ./repro-serve.sock)",
        )
        p.add_argument(
            "--port",
            type=int,
            default=None,
            metavar="N",
            help="loopback TCP port instead of a Unix socket",
        )

    p_serve = sub.add_parser(
        "serve",
        help="run a long-lived sweep server (submit jobs with "
        "`repro submit`; see docs/serving.md)",
    )
    _add_address_flags(p_serve)
    p_serve.add_argument(
        "--jobs",
        type=_positive_jobs,
        default=None,
        metavar="N",
        help="worker processes for the shared pool (default: REPRO_JOBS "
        "or 1; 'auto' = cpu_count-1)",
    )
    p_serve.add_argument(
        "--quota",
        type=int,
        default=None,
        metavar="N",
        help="max concurrently *running* jobs per client; submissions "
        "past the quota queue up rather than being rejected (default 2)",
    )
    p_serve.add_argument(
        "--cache",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help="persist the result cache under DIR (default: memory-only)",
    )
    p_serve.add_argument(
        "--cache-max-mb",
        type=float,
        default=None,
        metavar="MB",
        help="size cap for the result cache with LRU eviction; 0 "
        "disables (default: REPRO_CACHE_MAX_MB or 512 — a daemon's "
        "cache grows without bound otherwise)",
    )
    p_serve.add_argument(
        "--drain-s",
        type=float,
        default=None,
        metavar="S",
        help="grace period for running jobs on shutdown before the pool "
        "is terminated (their results are salvaged into the cache; "
        "default 5)",
    )
    _add_robustness_flags(p_serve)

    p_submit = sub.add_parser(
        "submit",
        help="submit canonical SystemSpec JSON files to a running server",
    )
    p_submit.add_argument(
        "specs",
        nargs="+",
        metavar="SPEC.json",
        help="spec files (each one object or a list of objects; '-' "
        "reads stdin) — produce them with `repro run ... --dump-spec`",
    )
    _add_address_flags(p_submit)
    p_submit.add_argument(
        "--client",
        default="cli",
        metavar="NAME",
        help="client name for the per-client concurrency quota",
    )
    p_submit.add_argument(
        "--priority",
        type=int,
        default=0,
        metavar="P",
        help="queue priority (lower dispatches first; default 0)",
    )
    p_submit.add_argument(
        "--no-wait",
        action="store_true",
        help="enqueue and exit without streaming results (cancel later "
        "with the printed request_id)",
    )
    p_submit.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="socket timeout in seconds (default: none)",
    )

    p_status = sub.add_parser("status", help="query a running sweep server")
    _add_address_flags(p_status)
    p_status.add_argument("--timeout", type=float, default=10.0, metavar="S")

    p_cancel = sub.add_parser(
        "cancel", help="cancel a submission on a running sweep server"
    )
    p_cancel.add_argument(
        "request_id",
        help="the request id from the submission's 'accepted' event",
    )
    _add_address_flags(p_cancel)
    p_cancel.add_argument("--timeout", type=float, default=10.0, metavar="S")

    args = parser.parse_args(argv)

    try:
        return _dispatch(args)
    except KeyboardInterrupt:
        # Ctrl-C mid-sweep: terminate the warm pool's workers outright
        # (a graceful shutdown would wait for their current — possibly
        # minutes-long — simulations) and report what survived.  Every
        # point that completed before the interrupt was already salvaged
        # into the cache by the executor's cache-as-it-lands rule.
        shutdown_pool(kill=True)
        print(
            "\ninterrupted: worker pool terminated; completed sweep "
            "points remain salvaged in the cache",
            file=sys.stderr,
        )
        return 130


def _dispatch(args) -> int:
    """Execute one parsed CLI invocation; the warm worker pool is torn
    down on *every* exit path (``try/finally`` — a ``KeyboardInterrupt``
    or a mid-sweep exception used to skip the old end-of-function
    ``shutdown_pool()`` call and leak warm worker processes)."""
    if args.command in (None, "list"):
        print("experiments:", ", ".join(EXPERIMENTS))
        print("workloads:  ", ", ".join(WORKLOAD_NAMES))
        print("architectures:", ", ".join(available_archs()))
        return 0
    if args.command == "serve":
        from .serve.server import serve_command

        return serve_command(args)
    if args.command in ("submit", "status", "cancel"):
        from .serve.client import client_command

        return client_command(args)
    if args.command == "all":
        executor, trace_dir = _make_executor(args, _make_obs(args))
        rc = 0
        try:
            for name in EXPERIMENTS:
                if name == "fig17":
                    continue  # shares the fig16 sweep
                rc = max(
                    rc,
                    _run_experiment(
                        name,
                        args.scale,
                        executor,
                        runlog=_runlog_dir(args),
                    ),
                )
                print()
            # One warm pool serves the whole run; spawns > 1 means worker
            # deaths or a limits change forced respawns along the way.
            if executor.jobs > 1 and pool_spawns():
                print(f"[pool: {pool_spawns()} spawn(s) across {len(EXPERIMENTS)} experiments]")
        except BaseException:
            # An interrupt or crash mid-sweep: the workers may be minutes
            # deep in their current simulations, and a graceful shutdown
            # here would both strand them *and* disarm the interrupt
            # handler's kill (discard clears the pool reference, making
            # the later shutdown_pool(kill=True) a no-op).  Kill now.
            shutdown_pool(kill=True)
            raise
        finally:
            shutdown_pool()
        if trace_dir is not None:
            _merge_sweep_trace(trace_dir, args.trace)
        else:
            _finish_obs(executor.obs, args)
        return rc
    if args.command == "run":
        return _run_one(args)
    executor, trace_dir = _make_executor(args, _make_obs(args))
    try:
        rc = _run_experiment(
            args.command,
            args.scale,
            executor,
            args.save,
            runlog=_runlog_dir(args),
        )
    except BaseException:
        # Same as the `all` path: a graceful teardown on the interrupt/
        # crash path would strand busy workers and turn the CLI handler's
        # shutdown_pool(kill=True) into a no-op.
        shutdown_pool(kill=True)
        raise
    finally:
        shutdown_pool()
    if trace_dir is not None:
        _merge_sweep_trace(trace_dir, args.trace)
    else:
        _finish_obs(executor.obs, args)
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
