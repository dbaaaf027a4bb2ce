"""SweepExecutor: ordering, env fallback, cache integration, run settings."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.exec import (
    ResultCache,
    SweepExecutor,
    SweepJob,
    WorkloadRef,
    execute_job,
    job_for,
    jobs_from_env,
)
from repro.system.configs import get_spec

from tests.conftest import tiny_system_config


def _jobs(n=3):
    cfg = tiny_system_config(num_gpus=2, num_sms=2)
    names = ("BP", "KMN", "CP", "STO")
    return [
        SweepJob.make(get_spec("GMN"), WorkloadRef(names[i % len(names)], 0.05), cfg)
        for i in range(n)
    ]


def test_jobs_from_env(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert jobs_from_env() == 1
    monkeypatch.setenv("REPRO_JOBS", "6")
    assert jobs_from_env() == 6
    monkeypatch.setenv("REPRO_JOBS", "garbage")
    assert jobs_from_env(default=2) == 2
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert jobs_from_env() == 1  # clamped to serial, not an error


def test_jobs_from_env_warns_on_invalid_value(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_JOBS", "four")
    assert jobs_from_env(default=2) == 2
    err = capsys.readouterr().err
    assert "REPRO_JOBS='four'" in err and "2 worker(s)" in err
    monkeypatch.setenv("REPRO_JOBS", "-3")
    assert jobs_from_env() == 1
    assert "clamped to 1 worker" in capsys.readouterr().err
    monkeypatch.setenv("REPRO_JOBS", "4")
    jobs_from_env()
    assert capsys.readouterr().err == ""  # valid values stay silent


def test_executor_reads_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert SweepExecutor().jobs == 3
    assert SweepExecutor(jobs=1).jobs == 1  # explicit beats env


def test_invalid_jobs_rejected():
    with pytest.raises(ConfigError):
        SweepExecutor(jobs=0)


def test_serial_results_in_submission_order():
    jobs = _jobs(3)
    results = SweepExecutor(jobs=1).map(jobs)
    assert [r.workload for r in results] == [j.workload.name for j in jobs]


def test_parallel_results_match_serial():
    jobs = _jobs(4)
    serial = SweepExecutor(jobs=1).map(jobs)
    parallel = SweepExecutor(jobs=2).map(jobs)
    assert [r.as_row() for r in serial] == [r.as_row() for r in parallel]


def test_cache_short_circuits_repeats():
    cache = ResultCache()
    executor = SweepExecutor(jobs=1, cache=cache)
    jobs = _jobs(2)
    first = executor.map(jobs)
    assert cache.stats.misses == 2 and cache.stats.stores == 2
    second = executor.map(jobs)
    assert cache.stats.hits == 2
    assert [r.as_row() for r in first] == [r.as_row() for r in second]


def test_cached_rows_match_uncached():
    jobs = _jobs(3)
    plain = SweepExecutor(jobs=1).map(jobs)
    cached = SweepExecutor(jobs=1, cache=ResultCache()).map(jobs)
    assert [r.as_row() for r in plain] == [r.as_row() for r in cached]


def test_execute_job_applies_run_kwargs():
    cfg = tiny_system_config(num_gpus=2, num_sms=2)
    job = SweepJob.make(
        get_spec("GMN"), WorkloadRef("VEC", 0.05), cfg, num_active_gpus=1
    )
    outcome = execute_job(job)
    assert outcome.ok and outcome.result.workload == "vectorAdd"


def test_sweep_defaults_scopes_executor():
    # The run settings live on the executor object, nowhere else.
    cache = ResultCache()
    ex = SweepExecutor(jobs=2, cache=cache)
    assert ex.jobs == 2 and ex.cache is cache
    assert SweepExecutor().cache is None


def test_sweep_defaults_scopes_scheduler():
    executor = SweepExecutor(scheduler="qos_staged")
    job = executor.job("GMN", WorkloadRef("VEC", 0.05))
    assert job.cfg.hmc.scheduler == "qos_staged"
    # job_for is pure, and so is an executor without the setting.
    assert job_for("GMN", WorkloadRef("VEC", 0.05)).cfg.hmc.scheduler == "frfcfs"
    assert SweepExecutor().job("GMN", "VEC").cfg.hmc.scheduler == "frfcfs"

    with pytest.raises(ConfigError, match="unknown scheduler"):
        SweepExecutor(scheduler="bogus")


def test_workload_ref_factory_roundtrip():
    ref = WorkloadRef(
        "vectoradd",
        factory="repro.workloads.vectoradd:make_vectoradd",
        kwargs=(("num_ctas", 4), ("lines_per_cta", 2)),
    )
    workload = ref.build()
    assert workload.name == "vectorAdd"


def test_workload_ref_bad_factory():
    with pytest.raises(ValueError):
        WorkloadRef("x", factory="not-a-factory").build()
