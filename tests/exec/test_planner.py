"""The sweep planner: cost prediction, LPT ordering, the in-memory
CostBook, ``--jobs auto``, the warm pool, and ``run_jobs``'s merge of
outcomes into an experiment result.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.exec import (
    CostBook,
    ResultCache,
    SweepExecutor,
    SweepJob,
    WorkloadRef,
    analytic_estimate,
    auto_jobs,
    jobs_from_env,
    lpt_order,
    pool_spawns,
    shutdown_pool,
)
from repro.exec.planner import CostPrediction
from repro.experiments.common import ExperimentResult, job_for, run_jobs
from repro.system.configs import get_spec

from tests.conftest import tiny_system_config

DIAG = "repro.workloads.diagnostics"


def _cfg():
    return tiny_system_config(num_gpus=2, num_sms=2)


def _job(workload="VEC", scale=0.05, arch="GMN", tag=None):
    return job_for(arch, workload, _cfg(), scale=scale, tag=tag)


class _Recorder:
    """A progress listener that keeps every event."""

    def __init__(self):
        self.events = []

    @property
    def kinds(self):
        return [e["event"] for e in self.events]

    def emit(self, event):
        self.events.append(event)

    def close(self):
        pass


# ----------------------------------------------------------------------
# --jobs auto
# ----------------------------------------------------------------------
def test_auto_jobs_is_positive():
    assert auto_jobs() >= 1


def test_jobs_from_env_auto(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "auto")
    assert jobs_from_env(default=1) == auto_jobs()
    monkeypatch.setenv("REPRO_JOBS", "AUTO")
    assert jobs_from_env(default=1) == auto_jobs()


def test_cli_jobs_accepts_auto():
    from repro.cli import _positive_jobs

    assert _positive_jobs("auto") == auto_jobs()
    assert _positive_jobs("3") == 3
    with pytest.raises(Exception):
        _positive_jobs("none")


# ----------------------------------------------------------------------
# Analytic estimation safety
# ----------------------------------------------------------------------
def test_analytic_estimate_registry_job():
    from repro.analytic.model import analytic_run, profile_for

    job = _job("VEC")
    estimate = analytic_estimate(job)
    assert isinstance(estimate, float)
    # The cost units: predicted memory requests + network deliveries.
    assert not job.run_kwargs
    predicted = analytic_run(job.spec, profile_for(job.workload), cfg=job.cfg)
    assert estimate == max(
        float(predicted.memory_requests + predicted.net_delivered), 1.0
    )


def test_analytic_estimate_never_builds_factory_workloads():
    # make_kill_worker calls os._exit at *build* time: if the planner ever
    # built a factory workload in the parent, this test would not merely
    # fail — the test process would die.
    ref = WorkloadRef("killworker", factory=f"{DIAG}:make_kill_worker")
    job = SweepJob.make(get_spec("GMN"), ref, _cfg(), tag="kill")
    assert analytic_estimate(job) is None


def test_fcfs_point_is_estimated_as_its_frfcfs_twin():
    frfcfs = _job("VEC")
    fcfs = job_for(
        "GMN", "VEC", _cfg().with_overrides(scheduler="fcfs"), scale=0.05
    )
    assert fcfs.system.cache_key() != frfcfs.system.cache_key()
    estimate = analytic_estimate(fcfs)
    assert estimate is not None
    assert estimate == analytic_estimate(frfcfs)


def test_estimate_scales_with_problem_size():
    small = analytic_estimate(_job("VEC", scale=0.05))
    large = analytic_estimate(_job("VEC", scale=0.5))
    assert isinstance(small, float) and isinstance(large, float)
    assert large > small


# ----------------------------------------------------------------------
# LPT ordering
# ----------------------------------------------------------------------
def test_lpt_order_longest_first_stable_ties():
    predictions = {
        0: CostPrediction(wall_s=1.0, source="default"),
        1: CostPrediction(wall_s=5.0, source="default"),
        2: CostPrediction(wall_s=1.0, source="default"),
        3: CostPrediction(wall_s=3.0, source="default"),
    }
    assert lpt_order([0, 1, 2, 3], predictions) == [1, 3, 0, 2]


# ----------------------------------------------------------------------
# CostBook
# ----------------------------------------------------------------------
def test_costbook_roundtrip_and_observed_override():
    book = CostBook()
    job = _job("VEC")
    cold = book.predict(job)
    assert cold.source == "default"

    from repro.obs.telemetry import JobTelemetry

    book.observe(
        job,
        JobTelemetry(label="VEC@GMN", source="run", wall_s=0.5, events=1000),
        units=cold.units,
    )
    warm = book.predict(job)
    assert warm.source == "observed"
    assert warm.wall_s == pytest.approx(0.5)
    # Another point of the same arch and model now prices at the
    # learned rate instead of the default.
    assert book.predict(_job("BP")).source == "rate"


def test_costbook_only_observes_real_runs():
    from repro.obs.telemetry import JobTelemetry

    book = CostBook()
    job = _job("VEC")
    book.observe(job, JobTelemetry(label="x", source="cache", wall_s=9.0))
    book.observe(job, JobTelemetry(label="x", source="run", wall_s=0.0))
    assert not book.points


# ----------------------------------------------------------------------
# Scheduling through the executor
# ----------------------------------------------------------------------
def test_bad_schedule_rejected():
    with pytest.raises(ConfigError, match="schedule"):
        SweepExecutor(jobs=2, schedule="random")


def test_lpt_predictions_stamped_and_learned(tmp_path):
    jobs = [_job(w, tag=f"{w}@GMN") for w in ("VEC", "BP", "KMN")]
    recorder = _Recorder()
    executor = SweepExecutor(jobs=2, schedule="lpt", progress=recorder)
    outcomes = executor.map_outcomes(jobs)
    assert all(o.ok for o in outcomes)
    predicted = [o.telemetry.predicted_wall_s for o in outcomes]
    assert all(p is not None and p > 0 for p in predicted)
    # The executor's second sweep predicts from what its first observed.
    executor.map_outcomes(jobs)
    planned = [e for e in recorder.events if e["event"] == "planned"]
    assert [e["observed"] for e in planned] == [0, len(jobs)]

    # A pooled LPT sweep leaves nothing but results in the cache directory.
    cache_dir = tmp_path / "cache"
    SweepExecutor(
        jobs=2, cache=ResultCache(str(cache_dir)), schedule="lpt"
    ).map_outcomes(jobs)
    files = list(cache_dir.iterdir())
    assert len(files) == len(jobs)
    assert all(f.suffix == ".pkl" for f in files)


def test_planned_event_emitted_on_lpt_pool_sweeps():
    recorder = _Recorder()
    jobs = [_job(w) for w in ("VEC", "BP")]
    SweepExecutor(jobs=2, schedule="lpt", progress=recorder).map_outcomes(jobs)
    assert "planned" in recorder.kinds
    assert recorder.kinds.index("planned") < recorder.kinds.index("started")

    recorder = _Recorder()
    SweepExecutor(jobs=2, schedule="fifo", progress=recorder).map_outcomes(jobs)
    assert "planned" not in recorder.kinds


def test_prediction_accuracy_in_flight_summary_and_runlog(tmp_path):
    from repro.obs.telemetry import flight_summary, write_runlog

    jobs = [_job(w, tag=f"{w}@GMN") for w in ("VEC", "BP")]
    outcomes = SweepExecutor(jobs=2, schedule="lpt").map_outcomes(jobs)
    telemetry = [o.telemetry for o in outcomes]
    summary = flight_summary(telemetry, pool_spawns=pool_spawns())
    assert summary["prediction"]["jobs"] == 2
    assert summary["prediction"]["geomean_actual_over_predicted"] > 0
    assert summary["pool_spawns"] >= 1

    path = write_runlog(
        str(tmp_path / "RUNLOG_x.jsonl"), "x", telemetry, pool_spawns=1
    )
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    job_lines = [rec for rec in lines if rec["record"] == "job"]
    assert all("predicted_wall_s" in rec for rec in job_lines)
    assert lines[-1]["pool_spawns"] == 1


# ----------------------------------------------------------------------
# Warm pool
# ----------------------------------------------------------------------
def test_pool_reused_across_sweeps_and_executors():
    shutdown_pool()
    before = pool_spawns()
    jobs = [_job(w) for w in ("VEC", "BP")]
    SweepExecutor(jobs=2).map_outcomes(jobs)
    SweepExecutor(jobs=2).map_outcomes(jobs)  # fresh executor, same pool
    assert pool_spawns() == before + 1
    shutdown_pool()


def test_pool_respawns_when_shape_changes():
    shutdown_pool()
    before = pool_spawns()
    jobs = [_job(w) for w in ("VEC", "BP")]
    SweepExecutor(jobs=2).map_outcomes(jobs)
    SweepExecutor(jobs=3).map_outcomes(jobs)
    assert pool_spawns() == before + 2
    shutdown_pool()


# ----------------------------------------------------------------------
# run_jobs
# ----------------------------------------------------------------------
def test_run_jobs_records_one_run_per_job_in_order():
    jobs = [_job("VEC", tag="a"), _job("BP", tag="b")]
    result = ExperimentResult(experiment="x", title="x")
    results = run_jobs(jobs, SweepExecutor(jobs=1), result)
    assert all(r is not None for r in results)
    assert [t.source for t in result.telemetry] == ["run", "run"]
    assert [t.label for t in result.telemetry] == [j.label for j in jobs]
    assert result.notes == []
