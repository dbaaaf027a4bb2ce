"""End-to-end observability: tracing, sampling, metrics on real runs."""

import json
import os

import pytest

from repro import (
    Observability,
    get_spec,
    get_workload,
    run_workload,
    run_workload_detailed,
    system_report,
)
from repro.exec import SweepExecutor, job_for
from repro.obs.bind import register_system_metrics
from repro.obs.registry import MetricRegistry
from repro.system.builder import MultiGPUSystem


class TestSystemMetricsTree:
    def test_every_system_exposes_a_registry(self):
        _, system = run_workload_detailed(get_spec("UMN"), get_workload("VEC", 0.05))
        tree = system.metrics.collect()
        assert "gpu0" in tree and "hmc" in tree and "net" in tree
        flat = system.metrics.as_flat()
        assert flat["gpu0.memory_requests"] > 0
        # The registry reads the live stats, not a snapshot.
        assert flat["net.delivered"] == system.network.stats.delivered

    def test_registry_is_built_on_first_access(self):
        system = MultiGPUSystem(get_spec("UMN"))
        assert "metrics" not in vars(system)
        eager = MetricRegistry()
        register_system_metrics(eager, system)
        assert system.metrics.names() == eager.names()
        assert system.metrics is system.metrics

    def test_vault_queue_gauges_registered(self):
        _, system = run_workload_detailed(get_spec("UMN"), get_workload("VEC", 0.05))
        names = system.metrics.names("hmc")
        assert any(".vault0.queue_depth" in n for n in names)


class TestTracedRun:
    def test_trace_has_expected_categories_and_parses(self, tmp_path):
        obs = Observability(trace=True)
        run_workload(get_spec("UMN"), get_workload("VEC", 0.1), obs=obs)
        path = tmp_path / "t.json"
        obs.finish(trace_path=str(path))
        parsed = json.loads(path.read_text())
        cats = {e.get("cat") for e in parsed["traceEvents"] if "cat" in e}
        assert {"kernel", "cta", "packet", "vault"} <= cats

    def test_process_lane_labeled_arch_and_workload(self):
        obs = Observability(trace=True)
        run_workload(get_spec("UMN"), get_workload("VEC", 0.05), obs=obs)
        labels = [
            e["args"]["name"]
            for e in obs.tracer.events
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        # The latest metadata event wins in Perfetto.
        assert labels[-1] == "UMN: vectorAdd"

    def test_memcpy_and_pcie_categories_on_pcie_arch(self):
        obs = Observability(trace=True)
        run_workload(get_spec("PCIe"), get_workload("VEC", 0.1), obs=obs)
        cats = set(obs.tracer.categories())
        assert "memcpy" in cats
        assert "pcie" in cats

    def test_flit_network_packets_traced(self):
        import dataclasses

        from repro import SystemConfig

        cfg = dataclasses.replace(SystemConfig(), network_model="flit")
        obs = Observability(trace=True)
        run_workload(get_spec("UMN"), get_workload("VEC", 0.02), cfg=cfg, obs=obs)
        assert "packet" in obs.tracer.categories()

    def test_tracing_does_not_change_results(self):
        base = run_workload(get_spec("UMN"), get_workload("VEC", 0.1))
        traced = run_workload(
            get_spec("UMN"), get_workload("VEC", 0.1), obs=Observability(trace=True)
        )
        assert base.as_row() == traced.as_row()
        assert base.total_ps == traced.total_ps


class TestSampledRun:
    def test_report_gains_timeseries_section(self):
        obs = Observability(sample_interval_us=0.1)
        _, system = run_workload_detailed(
            get_spec("UMN"), get_workload("VEC", 0.1), obs=obs
        )
        report = system_report(system)
        ts = report["timeseries"]
        assert ts["num_samples"] >= 1
        assert "vault.queue_depth.mean" in ts["series"]
        assert "net.channel_utilization" in ts["series"]
        assert len(ts["t_ps"]) == ts["num_samples"]
        json.dumps(report)  # whole report stays JSON-serializable

    def test_sampling_does_not_change_results(self):
        base = run_workload(get_spec("PCIe"), get_workload("VEC", 0.1))
        sampled = run_workload(
            get_spec("PCIe"),
            get_workload("VEC", 0.1),
            obs=Observability(sample_interval_us=0.1),
        )
        assert base.total_ps == sampled.total_ps
        assert base.as_row() == sampled.as_row()

    def test_nonpositive_interval_rejected(self):
        from repro.errors import MetricError

        with pytest.raises(MetricError):
            Observability(sample_interval_us=-1.0)
        with pytest.raises(MetricError):
            Observability(sample_interval_us=0.0)

    def test_report_has_no_timeseries_without_sampling(self):
        _, system = run_workload_detailed(get_spec("UMN"), get_workload("VEC", 0.05))
        assert "timeseries" not in system_report(system)


class TestDefaultObservability:
    def test_runtime_default_binds_new_systems(self):
        # An executor's bundle observes every run it executes, in this
        # process even when it has workers (the sinks cannot cross one).
        obs = Observability(trace=True)
        executor = SweepExecutor(jobs=2, obs=obs)
        jobs = [job_for("UMN", "VEC", scale=0.05), job_for("GMN", "VEC", scale=0.05)]
        outcomes = executor.map_outcomes(jobs)
        assert all(o.ok and o.telemetry.worker_pid == os.getpid() for o in outcomes)
        traced = obs.tracer.num_events
        assert traced > 0
        # Nothing ambient: a run outside the executor is not observed.
        run_workload(get_spec("UMN"), get_workload("VEC", 0.05))
        assert obs.tracer.num_events == traced

    def test_explicit_obs_wins_over_default(self):
        fallback = Observability(trace=True)
        explicit = Observability(trace=True)
        SweepExecutor(obs=fallback)
        run_workload(get_spec("UMN"), get_workload("VEC", 0.05), obs=explicit)
        assert fallback.tracer.num_events == 0
        assert explicit.tracer.num_events > 0


class TestProfiledRun:
    def test_profiler_attributes_modules(self):
        obs = Observability(profile=True)
        run_workload(get_spec("UMN"), get_workload("VEC", 0.05), obs=obs)
        report = obs.profiler.report()
        assert report["events"] > 0
        assert any("repro." in m for m in report["by_module"])
