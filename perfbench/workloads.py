"""The benchmark's workloads and the metrics they report.

Each ``run_*`` function takes (seed, seconds, trace, run_dir) and returns
a :class:`Report`.  With ``trace=False`` a run measures the end-to-end
metrics; with ``trace=True`` it runs the workload's fixed pass once
untraced and once under the ledger shims, and reports the per-layer
metrics.  See METRICS.md for every metric's definition.

Why these workloads: each layer a performance or refactoring change is
likely to touch does most of its work in one workload and little or none
in another, so a change to it should move one workload and leave the
others where they were.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import random
import subprocess
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from benchlib import (
    HERE,
    ROOT,
    MachineSpeed,
    child_env,
    digest,
    geomean,
    median,
    nominal_wall,
    python,
    sim_counts,
    sim_record,
    timed_passes,
    tree_peak_rss_mb,
)
from ledger import Ledger, Shims, calibrate_profiler, layer_metrics, load_dir, merge
from probe import warm_pool

from repro.analytic import load_calibration
from repro.config import SystemConfig
from repro.exec import CostBook, SweepExecutor, SweepJob, pool_spawns, shutdown_pool
from repro.exec import executor as executor_module
from repro.exec.jobs import execute_job
from repro.exec.xtier import compare_rows, run_figure_rows
from repro.experiments import fig14_organizations as fig14
from repro.experiments.common import job_for
from repro.system.configs import EXTENSION_ARCHS, TABLE_III, get_spec
from repro.system.spec import SystemSpec, WorkloadRef
from repro.workloads.suite import WORKLOAD_NAMES

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "p50_ms": "ms",
    "peak_rss_mb": "MB",
}

SERVE_CLASSES = ("hit", "analytic", "packet")

PER_LAYER: Dict[str, str] = {
    "import.s": "s",
    "system.spec.build_s": "s",
    "system.spec.count": "count",
    "system.builder.s": "s",
    "system.builder.count": "count",
    "sim.events": "count",
    "sim.dispatch_s": "s",
    "sim.peak_pending": "count",
    "sim.events_per_s": "1/s",
    **{
        f"{layer}.{kind}": unit
        for layer in ("network", "network.flitnet", "hmc", "gpu", "system.fabric", "pcie", "pcn", "cpu", "sim.other")
        for kind, unit in (("s", "s"), ("events", "count"))
    },
    "network.delivered": "count",
    "network.avg_hops": "hops",
    "hmc.served": "count",
    "hmc.row_hit_rate": "ratio",
    "hmc.queue_wait_ps.cpu": "ps",
    "hmc.queue_wait_ps.gpu": "ps",
    "gpu.memory_requests": "count",
    "gpu.l2_hit_rate": "ratio",
    "analytic.profile_s": "s",
    "analytic.run_s": "s",
    "analytic.count": "count",
    "analytic.xtier_max_err": "ratio",
    "exec.cache.get_s": "s",
    "exec.cache.put_s": "s",
    "exec.cache.hit_ratio": "ratio",
    "exec.planner.plan_s": "s",
    "exec.planner.pred_ratio": "ratio",
    "exec.planner.lpt_vs_fifo": "ratio",
    "exec.executor.pool_eff": "ratio",
    "exec.executor.overhead_s": "s",
    "exec.executor.pool_spawns": "count",
    **{
        f"serve.{cls}.{name}": "ms"
        for cls in SERVE_CLASSES
        for name in ("p50_ms", "p90_ms", "accept_ms", "queue_ms", "pool_overhead_ms", "run_ms")
    },
    "serve.req_per_s": "1/s",
    "obs.trace_overhead_s": "s",
    "obs.profiler_event_ns": "ns",
}

#: Pool workers, daemon workers and client connections: the box's cores.
WORKERS = 2
#: Set-up probes per run; ``setup_s`` is their median.
SETUP_REPEATS = 11
PROBE = os.path.join(HERE, "probe.py")
REFERENCE_PATH = os.path.join(HERE, "reference.json")


@functools.lru_cache(maxsize=1)
def reference() -> Dict[str, Any]:
    """Row digests written by make_reference.py on the commit that
    defined the benchmark."""
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


@dataclass
class Report:
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: ``wall_s`` and ``p50_ms`` at the host's speed of the moment, before
    #: the machine-speed normalization; printed beside the result, not in it.
    raw: Dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


# ----------------------------------------------------------------------
# Shared steps
# ----------------------------------------------------------------------
class RecordingExecutor(SweepExecutor):
    """A serial :class:`SweepExecutor` that keeps every (job, outcome) it
    maps."""

    def __init__(self) -> None:
        super().__init__(jobs=1, keep_going=True)
        self.outcomes: List[Tuple[SweepJob, Any]] = []

    def map_outcomes(self, jobs):
        jobs = list(jobs)
        outcomes = super().map_outcomes(jobs)
        self.outcomes.extend(zip(jobs, outcomes))
        return outcomes


class SlicedExecuteJob:
    """``execute_job`` with reference slices on both sides of the point,
    run by the process that runs the point (this one, or a pool worker).

    The two workers of a pool run at different speeds at the same moment
    on the host this benchmark was written on, so slices taken in the
    parent cannot stand in for theirs.  Each call appends the point's
    label, wall, slowdown factor and slice seconds to
    ``speed-<pid>.jsonl`` under ``out_dir``; :func:`read_point_speeds`
    collects them.  Analytic points pass straight through: they take about
    a millisecond, less than the slices would.
    """

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir

    def __call__(self, job: SweepJob):
        if job.cfg.network_model == "analytic":
            return execute_job(job)
        speed = MachineSpeed()
        speed.sample(MachineSpeed.POINT_SLICES)
        outcome = execute_job(job)
        speed.sample(MachineSpeed.POINT_SLICES)
        line = {
            "label": job.label,
            "wall_s": outcome.telemetry.wall_s,
            "factor": speed.factor(0),
            "spent": speed.spent,
        }
        with open(os.path.join(self.out_dir, f"speed-{os.getpid()}.jsonl"), "a") as handle:
            handle.write(json.dumps(line) + "\n")
        return outcome


@contextlib.contextmanager
def sliced_points(out_dir: str, module: Any = executor_module):
    """Make ``module`` (the sweep executor, or the serve daemon) run every
    point through :class:`SlicedExecuteJob`.  The executor's serial path
    calls the module's ``execute_job`` and its pool pickles it with each
    point, so both see the swap."""
    original = module.execute_job
    module.execute_job = SlicedExecuteJob(out_dir)
    try:
        yield
    finally:
        module.execute_job = original


def read_point_speeds(out_dir: str) -> List[Dict[str, Any]]:
    """The lines :class:`SlicedExecuteJob` wrote, from every file under
    ``out_dir``; the files are removed, so the next pass starts from none."""
    lines: List[Dict[str, Any]] = []
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        with open(path) as handle:
            lines.extend(json.loads(line) for line in handle)
        os.remove(path)
    return lines


def busy_factor(lines: Sequence[Dict[str, Any]]) -> float:
    """Slowdown of a set of points, weighted by each point's wall."""
    return sum(x["wall_s"] for x in lines) / sum(x["wall_s"] / x["factor"] for x in lines)


@dataclass
class SlicedPass:
    """One pass whose simulated points ran under :func:`sliced_points`."""

    #: Host seconds, less the slices (split over the workers that ran them).
    wall: float
    #: The pass's slowdown, weighted by each point's wall.
    factor: float
    #: (host wall, own slowdown factor) of every simulated point.
    points: List[Tuple[float, float]]
    output: Any

    @property
    def nominal_wall(self) -> float:
        return self.wall / self.factor


def sliced_pass(run_pass, speed_dir: str, workers: int) -> SlicedPass:
    """Run ``run_pass()``, which returns (its measured wall, its output),
    with every simulated point between reference slices in the process
    that runs it."""
    with sliced_points(speed_dir):
        wall, output = run_pass()
    lines = read_point_speeds(speed_dir)
    return SlicedPass(
        wall=wall - sum(x["spent"] for x in lines) / workers,
        factor=busy_factor(lines),
        points=[(x["wall_s"], x["factor"]) for x in lines],
        output=output,
    )


def timed_setups(launch) -> float:
    """Median over SETUP_REPEATS calls of ``launch()`` (which returns its
    own set-up seconds), each at nominal machine speed: a block of
    reference slices before the first launch and after each one."""
    speed = MachineSpeed()
    speed.block()
    setups = []
    for _ in range(SETUP_REPEATS):
        since = len(speed.samples) - MachineSpeed.BLOCK
        seconds = launch()
        speed.block()
        setups.append(seconds / speed.factor(since))
    return median(setups)


def probe_setup(workload: str) -> Tuple[float, float]:
    """(nominal-speed launch-to-ready seconds, import seconds): medians
    over fresh probe processes."""
    imports = []

    def launch() -> float:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [python(), PROBE, workload],
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - start
        finally:
            proc.stdout.close()
            proc.wait(timeout=120)
        if proc.returncode != 0 or not line.startswith("ready "):
            raise RuntimeError(f"set-up probe for {workload} failed (exit {proc.returncode})")
        imports.append(float(line.split()[1]))
        return seconds

    return timed_setups(launch), median(imports)


def traced_pass(run_pass, flush_dir: Optional[str] = None, speed: Optional[MachineSpeed] = None):
    """Run ``run_pass()`` under the shims; returns (wall at nominal
    machine speed, output, ledger)."""
    ledger = Ledger(flush_dir)
    with Shims(ledger):
        wall, output = nominal_wall(run_pass, speed)
    parts = [ledger.to_dict()] + (load_dir(flush_dir) if flush_dir else [])
    return wall, output, merge(parts)


def report_layers(
    report: Report,
    ledger: Dict[str, Any],
    cost: Dict[str, float],
    untraced_wall: float,
    traced_wall: float,
    records: Sequence[Dict[str, Any]],
) -> None:
    """Fill the per-layer metrics every traced run shares; the walls are
    at nominal machine speed."""
    report.per_layer.update(layer_metrics(ledger, cost))
    report.per_layer.update(sim_counts(records))
    report.per_layer["sim.events_per_s"] = (
        report.per_layer["sim.events"] / untraced_wall if untraced_wall else 0.0
    )
    report.per_layer["obs.trace_overhead_s"] = traced_wall - untraced_wall
    report.per_layer["obs.profiler_event_ns"] = cost["total_s"] * 1e9


def check_same_records(report: Report, untraced, traced, what: str) -> None:
    report.check(
        sorted(map(digest, untraced)) == sorted(map(digest, traced)),
        f"{what}: simulated counts differ between the traced and untraced passes",
    )


def report_end_to_end(
    report: Report,
    setup: float,
    walls: Sequence[Tuple[float, float]],
    latencies: Sequence[Tuple[float, float]],
    rss_mb: float,
) -> None:
    """``wall_s`` is the median pass wall and ``p50_ms`` the median point
    latency over every pass.  Both come as (host seconds, slowdown factor)
    pairs; the metrics are at nominal machine speed, ``report.raw`` keeps
    the host-speed medians."""
    report.end_to_end.update(
        setup_s=setup,
        wall_s=median(w / f for w, f in walls),
        p50_ms=median(t / f for t, f in latencies) * 1000.0,
        peak_rss_mb=rss_mb,
    )
    report.raw.update(
        wall_s=median(w for w, _ in walls),
        p50_ms=median(t for t, _ in latencies) * 1000.0,
    )


# ----------------------------------------------------------------------
# fig14-packet: the Fig. 14 grid, serial, cold
# ----------------------------------------------------------------------
FIG14_SCALE = 0.25


def fig14_pass(order: Sequence[str], report: Report):
    """One `repro fig14` sweep: 14 workloads x 7 organizations, serial,
    no result cache.  Returns (the sweep's wall, sim records)."""
    executor = RecordingExecutor()
    start = time.perf_counter()
    result = fig14.run(scale=FIG14_SCALE, workloads=list(order), executor=executor)
    wall = time.perf_counter() - start
    reference = {
        (row["workload"], row["arch"]): row
        for row in load_calibration().figures["fig14"].rows
    }
    rows = {
        (row["workload"], row["arch"]): json.loads(json.dumps(row))
        for row in result.rows
    }
    wrong = [key for key, row in reference.items() if rows.get(key) != row]
    report.attempted += len(reference)
    report.failed += len(wrong)
    report.check(not wrong, f"fig14 rows differ from calibration.json: {wrong[:3]}")
    records = [sim_record(o.result) for _, o in executor.outcomes if o.ok]
    return wall, records


def run_fig14_packet(seed: int, seconds: float, trace: bool, run_dir: str) -> Report:
    report = Report()
    order = list(WORKLOAD_NAMES)
    random.Random(seed).shuffle(order)
    setup, imported = probe_setup("fig14-packet")
    if not trace:
        # One sweep (98 points, each timed against the slices beside it)
        # takes 12-25 s, so at 15 s a run makes exactly one.  Only the
        # timings of a sweep are kept.
        speed_dir = os.path.join(run_dir, "speed")
        os.makedirs(speed_dir)
        _, sweeps, _ = timed_passes(
            lambda i: dataclasses.replace(
                sliced_pass(lambda: fig14_pass(order, report), speed_dir, workers=1),
                output=None,
            ),
            seconds,
        )
        report_end_to_end(
            report,
            setup,
            [(s.wall, s.factor) for s in sweeps],
            [p for s in sweeps for p in s.points],
            tree_peak_rss_mb(),
        )
        return report
    report.per_layer["import.s"] = imported
    untraced, (_, records) = nominal_wall(lambda: fig14_pass(order, report))
    cost = calibrate_profiler()
    traced, _, ledger = traced_pass(lambda: fig14_pass(order, report))
    check_same_records(report, records, ledger["sim_records"], "fig14-packet")
    report_layers(report, ledger, cost, untraced, traced, records)
    return report


# ----------------------------------------------------------------------
# contention-packet: scheduler / UGAL / flit points on the pool, LPT
# ----------------------------------------------------------------------
SCHED_POLICIES = ("fcfs", "frfcfs_cap", "qos_staged")


def contention_jobs(seed: int) -> List[SweepJob]:
    """The ext-sched grid without its default policy, the Fig. 15 UGAL
    points (CG.S at scale 1.0 instead of 4.0), and the ext-flit
    full-system points; the seed sets the declaration order."""
    base = SystemConfig()
    jobs = []
    for policy in SCHED_POLICIES:
        cfg = base.scaled(hmc=dataclasses.replace(base.hmc, scheduler=policy))
        for arch in ("UMN", "GMN"):
            for name in ("CG.S", "FT.S"):
                jobs.append(
                    job_for(arch, WorkloadRef(name, 0.25), cfg, tag=f"{name}@{arch}/{policy}")
                )
    for topology in ("ddfly", "dfbfly"):
        spec = get_spec("GMN").with_(topology=topology, routing="ugal")
        for name, scale in (("KMN", 0.25), ("CP", 0.25), ("CG.S", 1.0)):
            jobs.append(job_for(spec, name, base, scale=scale, tag=f"{name}@GMN-{topology}/ugal"))
    for name in ("BP", "KMN"):
        for model in ("packet", "flit"):
            cfg = dataclasses.replace(base, network_model=model)
            jobs.append(job_for("GMN", name, cfg, scale=0.25, tag=f"{name}@GMN/{model}"))
    random.Random(seed).shuffle(jobs)
    return jobs


def contention_pass(jobs: Sequence[SweepJob], schedule: str, report: Report):
    """One sweep of the job set on the warm pool with a fresh CostBook.
    Returns (makespan, (job telemetry, sim records))."""
    executor = SweepExecutor(
        jobs=WORKERS, schedule=schedule, costbook=CostBook(), keep_going=True
    )
    start = time.perf_counter()
    outcomes = executor.map_outcomes(jobs)
    makespan = time.perf_counter() - start
    failed = [o.failure.summary() for o in outcomes if not o.ok]
    report.attempted += len(jobs)
    report.failed += len(failed)
    report.check(not failed, f"contention-packet points failed: {failed[:3]}")
    records = [
        (job.label, sim_record(o.result)) for job, o in zip(jobs, outcomes) if o.ok
    ]
    if not failed:
        ok = digest(sorted(records)) == reference()["contention-packet"]
        report.failed += 0 if ok else len(jobs)
        report.check(ok, "contention-packet row digest differs from reference.json")
    return makespan, ([o.telemetry for o in outcomes], [r for _, r in records])


def pool_pass(jobs: Sequence[SweepJob], schedule: str, report: Report, speed_dir: str) -> SlicedPass:
    """:func:`contention_pass` with every point sliced in its worker."""
    return sliced_pass(lambda: contention_pass(jobs, schedule, report), speed_dir, WORKERS)


def pool_figures(makespan: float, telemetry) -> Dict[str, float]:
    busy = sum(t.wall_s for t in telemetry)
    return {
        "exec.executor.pool_eff": busy / (WORKERS * makespan),
        "exec.executor.overhead_s": makespan - busy / WORKERS,
        "exec.planner.pred_ratio": geomean(
            [t.wall_s / t.predicted_wall_s for t in telemetry if t.predicted_wall_s]
        ),
    }


def run_contention_packet(seed: int, seconds: float, trace: bool, run_dir: str) -> Report:
    report = Report()
    jobs = contention_jobs(seed)
    if len({job.label for job in jobs}) != len(jobs):
        raise ValueError("contention-packet labels must be unique")
    setup, imported = probe_setup("contention-packet")
    speed_dir = os.path.join(run_dir, "speed")
    os.makedirs(speed_dir)
    spawns = pool_spawns()
    try:
        warm_pool(WORKERS)
        if not trace:
            _, passes, _ = timed_passes(
                lambda i: dataclasses.replace(
                    pool_pass(jobs, "lpt", report, speed_dir), output=None
                ),
                seconds,
                min_passes=3,
            )
            report_end_to_end(
                report,
                setup,
                [(p.wall, p.factor) for p in passes],
                [point for p in passes for point in p.points],
                tree_peak_rss_mb(),
            )
            return report
        report.per_layer["import.s"] = imported
        lpt, fifo = [], []
        for _ in range(2):
            lpt.append(pool_pass(jobs, "lpt", report, speed_dir))
            fifo.append(pool_pass(jobs, "fifo", report, speed_dir))
        report.per_layer["exec.planner.lpt_vs_fifo"] = median(
            f.nominal_wall / l.nominal_wall for l, f in zip(lpt, fifo)
        )
        best = min(lpt, key=lambda p: p.nominal_wall)
        telemetry, records = best.output
        untraced = median(p.nominal_wall for p in lpt)
        report.per_layer.update(pool_figures(best.wall, telemetry))
        cost = calibrate_profiler()
        # Workers must fork after the shims are in place, and must not
        # outlive the traced pass.
        shutdown_pool()
        flush_dir = os.path.join(run_dir, "ledgers-contention")
        os.makedirs(flush_dir)
        _, traced_pass_out, ledger = traced_pass(
            lambda: pool_pass(jobs, "lpt", report, speed_dir), flush_dir
        )
        traced = traced_pass_out.nominal_wall
        shutdown_pool()
        check_same_records(report, records, ledger["sim_records"], "contention-packet")
        report_layers(report, ledger, cost, untraced, traced, records)
        report.per_layer["exec.executor.pool_spawns"] = float(pool_spawns() - spawns)
        return report
    finally:
        shutdown_pool()


# ----------------------------------------------------------------------
# explore-analytic: a seeded analytic design-space grid + validation
# ----------------------------------------------------------------------
EXPLORE_SCALES = (0.125, 0.25, 0.5, 1.0)
TOPOLOGY_VARIANTS = ("sfbfly", "smesh", "storus", "smesh-2x", "storus-2x", "dfbfly", "ddfly", "fbfly")
#: Organizations whose topology is a free design choice.
NETWORKED_ARCHS = ("GMN", "GMN-ZC", "UMN")
EXPLORE_SAMPLE = 600
#: Points between reference slices.  Blocks of slices only before and
#: after a pass read the speed of the moment badly: with them, wall_s
#: spread 0.25 (IQR/median, five seeds) against 0.02 at host speed.
EXPLORE_CHUNK = 10
VALIDATION_FIGURES = ("fig7", "fig14", "fig16")


def analytic_catalogue() -> List[Tuple[str, Dict[str, Any]]]:
    """Every unique analytic spec of the design space, as (label, spec dict):
    Table II workloads x Table III and extension organizations x topology
    variants (where the organization has a free topology) x scales."""
    cfg = SystemConfig(network_model="analytic")
    archs = list(TABLE_III.values()) + list(EXTENSION_ARCHS.values())
    catalogue = []
    for name in WORKLOAD_NAMES:
        for scale in EXPLORE_SCALES:
            for arch in archs:
                topologies = TOPOLOGY_VARIANTS if arch.name in NETWORKED_ARCHS else (arch.topology,)
                for topology in topologies:
                    spec = SystemSpec(arch.with_(topology=topology), WorkloadRef(name, scale), cfg)
                    catalogue.append((f"{name}@{arch.name}-{topology}/{scale}", spec.to_dict()))
    return catalogue


def explore_pass(
    specs: Sequence[Dict[str, Any]],
    report: Report,
    speed: Optional[MachineSpeed] = None,
    keep_rows: bool = False,
):
    """Run the sampled specs inline, EXPLORE_CHUNK at a time with (given a
    ``speed`` tracker) reference slices after each chunk, then the
    validation figures at the analytic tier against their committed bands.
    Returns (host point walls, the sampled specs' rows if ``keep_rows``
    else None, worst relative error)."""
    jobs = [SweepJob(SystemSpec.from_dict(spec)) for spec in specs]
    executor = RecordingExecutor()
    outcomes = []
    for start in range(0, len(jobs), EXPLORE_CHUNK):
        outcomes += executor.map_outcomes(jobs[start : start + EXPLORE_CHUNK])
        if speed is not None:
            speed.sample(MachineSpeed.POINT_SLICES)
    failed = [o.failure.summary() for o in outcomes if not o.ok]
    report.attempted += len(jobs)
    report.failed += len(failed)
    report.check(not failed, f"explore-analytic points failed: {failed[:3]}")
    committed = load_calibration().figures
    worst_error = 0.0
    for figure in VALIDATION_FIGURES:
        reference = committed[figure]
        report.attempted += len(reference.rows)
        try:
            rows = run_figure_rows(figure, FIG14_SCALE, "analytic", executor)
        except Exception as exc:  # a failed figure point is a failed output
            report.failed += len(reference.rows)
            report.check(False, f"{figure} at analytic fidelity failed: {exc}")
            continue
        worst, breaches = compare_rows(reference.rows, rows, reference.tolerance)
        worst_error = max([worst_error, *worst.values()])
        breached = {b["row"] for b in breaches}
        report.failed += len(breached)
        report.check(not breaches, f"{figure}: {len(breaches)} xtier tolerance breach(es)")
    walls = [o.telemetry.wall_s for _, o in executor.outcomes if o.ok]
    rows = [o.result.as_row() for o in outcomes if o.ok] if keep_rows else None
    return walls, rows, worst_error


def run_explore_analytic(seed: int, seconds: float, trace: bool, run_dir: str) -> Report:
    report = Report()
    catalogue = [spec for _, spec in analytic_catalogue()]
    sample = random.Random(seed).sample(catalogue, EXPLORE_SAMPLE)
    setup, imported = probe_setup("explore-analytic")
    if not trace:
        speed = MachineSpeed()
        walls, outputs, factors = timed_passes(
            lambda i: explore_pass(sample, report, speed)[0],
            seconds,
            min_passes=3,
            speed=speed,
        )
        report_end_to_end(
            report,
            setup,
            list(zip(walls, factors)),
            [(w, f) for points, f in zip(outputs, factors) for w in points],
            tree_peak_rss_mb(),
        )
        return report
    report.per_layer["import.s"] = imported
    explore_pass(sample, report)  # fills the model caches a sweep shares
    speed = MachineSpeed()
    untraced, (_, rows, worst) = nominal_wall(
        lambda: explore_pass(sample, report, speed, keep_rows=True), speed
    )
    cost = calibrate_profiler()
    speed = MachineSpeed()
    traced, (_, traced_rows, _), ledger = traced_pass(
        lambda: explore_pass(sample, report, speed, keep_rows=True), speed=speed
    )
    report.check(rows == traced_rows, "explore-analytic rows differ between traced and untraced passes")
    report_layers(report, ledger, cost, untraced, traced, [])
    report.per_layer["analytic.xtier_max_err"] = worst
    return report


def run(name: str, seed: int, seconds: float, trace: bool, run_dir: str) -> Report:
    from serve_mixed import run_serve_mixed

    runners = {
        "fig14-packet": run_fig14_packet,
        "contention-packet": run_contention_packet,
        "explore-analytic": run_explore_analytic,
        "serve-mixed": run_serve_mixed,
    }
    report = runners[name](seed, seconds, trace, run_dir)
    if trace:
        report.per_layer = {key: float(report.per_layer.get(key, 0.0)) for key in PER_LAYER}
    return report
