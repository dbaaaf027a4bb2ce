"""End-to-end observability: tracing, sampling, reports on real runs."""

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


class TestSystemReportTree:
    """``system_report`` is the one post-run tree of component counters;
    it must agree with the other walk, ``run._collect``'s RunResult."""

    def test_class_totals_conserved_against_run_result(self):
        # CG.S on UMN has both CPU (host steps) and GPU requester classes.
        result, system = run_workload_detailed(
            get_spec("UMN"), get_workload("CG.S", 0.05)
        )
        hmcs = system_report(system)["hmcs"].values()
        for field in ("class_served", "class_queue_wait_ps"):
            totals = {}
            for hmc in hmcs:
                for cls, value in hmc[field].items():
                    totals[cls] = totals.get(cls, 0) + value
            assert totals == getattr(result, field), field
        assert {"cpu", "gpu"} <= set(result.class_served)

    def test_network_delivered_matches_live_stats(self):
        _, system = run_workload_detailed(get_spec("UMN"), get_workload("VEC", 0.05))
        report = system_report(system)
        assert report["network"]["delivered"] == system.network.stats.delivered
        assert report["network"]["delivered"] > 0


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
