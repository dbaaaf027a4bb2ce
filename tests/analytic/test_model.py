"""The analytic tier's building blocks and its integration seams."""

import json

import pytest

from repro.analytic import Calibration, Coefficients, analytic_run, fit_coefficients
from repro.analytic.model import _MODEL_CACHE, _Resource
from repro.analytic.profile import profile_workload
from repro.config import NETWORK_MODELS, SystemConfig
from repro.errors import ConfigError, SimulationError
from repro.exec import SweepExecutor, SweepJob, job_fingerprint, job_key
from repro.system.configs import get_spec
from repro.system.memcpy import memcpy_time_ps
from repro.system.spec import WorkloadRef
from repro.workloads.suite import get_workload


def _job(arch="GMN", fidelity="packet", workload="BP", scale=0.1):
    cfg = SystemConfig(network_model=fidelity)
    return SweepJob.make(get_spec(arch), WorkloadRef(workload, scale), cfg)


class TestMD1Resource:
    def test_no_visits_no_wait(self):
        res = _Resource(servers=2)
        assert res.wait_ps(1000.0) == 0.0

    def test_busy_bound_divides_by_servers(self):
        res = _Resource(servers=4)
        res.add(count=8.0, service_ps=100.0)
        assert res.busy_bound_ps == pytest.approx(200.0)

    def test_md1_wait_formula(self):
        # demand 400 ps over a 1000 ps window on one server: rho = 0.4,
        # mean service 100 ps -> W = rho*S / (2*(1-rho)) = 33.33 ps.
        res = _Resource(servers=1)
        res.add(count=4.0, service_ps=100.0)
        assert res.wait_ps(1000.0) == pytest.approx(0.4 * 100.0 / (2 * 0.6))

    def test_utilization_capped(self):
        res = _Resource(servers=1)
        res.add(count=100.0, service_ps=100.0)  # nominal rho = 10
        capped = res.wait_ps(1000.0)
        res2 = _Resource(servers=1)
        res2.add(count=1000.0, service_ps=100.0)  # nominal rho = 100
        assert res2.wait_ps(1000.0) == pytest.approx(capped)

    def test_wait_grows_with_utilization(self):
        waits = []
        for count in (1.0, 4.0, 8.0):
            res = _Resource(servers=1)
            res.add(count=count, service_ps=100.0)
            waits.append(res.wait_ps(1000.0))
        assert waits == sorted(waits)


class TestProfile:
    def test_distinct_lines_power_law_monotone(self):
        profile = profile_workload(get_workload("BP", scale=0.1))
        kp = profile.kernels[0]
        values = [kp.distinct_read_lines(m) for m in (1, 4, 16, 64)]
        assert values == sorted(values)
        # Sub-linear: doubling CTAs can never more than double lines.
        assert kp.distinct_read_lines(32) <= 2 * kp.distinct_read_lines(16) + 1e-9


class TestAnalyticRun:
    def test_memcpy_matches_event_engine_closed_form(self):
        spec, cfg = get_spec("PCIe"), SystemConfig()
        workload = get_workload("BP", scale=0.1)
        result = analytic_run(spec, workload, cfg=cfg)
        assert result.h2d_ps == memcpy_time_ps(spec, cfg, workload.h2d_bytes)
        assert result.d2h_ps == memcpy_time_ps(spec, cfg, workload.d2h_bytes)

    def test_deterministic(self):
        spec, cfg = get_spec("UMN"), SystemConfig()
        a = analytic_run(spec, get_workload("BFS", scale=0.1), cfg=cfg)
        b = analytic_run(spec, get_workload("BFS", scale=0.1), cfg=cfg)
        assert a.as_row() == b.as_row()

    def test_num_active_gpus_validated(self):
        with pytest.raises(SimulationError, match="num_active_gpus"):
            analytic_run(
                get_spec("GMN"),
                get_workload("BP", scale=0.1),
                cfg=SystemConfig(),
                num_active_gpus=5,
            )

    def test_calibration_scales_kernel(self):
        spec, cfg = get_spec("GMN"), SystemConfig()
        workload = get_workload("BP", scale=0.1)
        raw = analytic_run(spec, workload, cfg=cfg, calibration=Calibration())
        key = "{}/{}/v{}".format(
            spec.name, spec.topology, cfg.hmc.vault_bus_bytes_per_cycle
        )
        doubled = analytic_run(
            spec,
            workload,
            cfg=cfg,
            calibration=Calibration(coefficients={key: Coefficients(kernel=2.0)}),
        )
        assert doubled.kernel_ps == pytest.approx(2 * raw.kernel_ps, rel=1e-9)

    def test_model_cache_reused(self):
        _MODEL_CACHE.clear()
        spec, cfg = get_spec("UMN"), SystemConfig()
        analytic_run(spec, get_workload("BP", scale=0.1), cfg=cfg)
        assert len(_MODEL_CACHE) == 1
        analytic_run(spec, get_workload("BFS", scale=0.1), cfg=cfg)
        assert len(_MODEL_CACHE) == 1  # same (spec, cfg): shared model


class TestFitCoefficients:
    def test_identity_on_empty(self):
        assert fit_coefficients([]) == Coefficients()

    def test_geomean_of_ratios(self):
        class R:
            def __init__(self, kernel):
                self.kernel_ps = kernel
                self.host_ps = 0
                self.avg_net_latency_ps = 0.0
                self.avg_hops = 0.0
                self.energy = None

        pairs = [(R(200.0), R(100.0)), (R(800.0), R(100.0))]
        fitted = fit_coefficients(pairs)
        assert fitted.kernel == pytest.approx((2.0 * 8.0) ** 0.5)
        assert fitted.host == 1.0  # zero-valued metric stays neutral


class TestFidelitySelection:
    def test_config_rejects_unknown_model(self):
        with pytest.raises(ConfigError, match="analytic"):
            SystemConfig(network_model="bogus")

    def test_runtime_default_rejects_unknown_model(self):
        with pytest.raises(ConfigError, match=str(sorted(NETWORK_MODELS))):
            SweepExecutor(fidelity="bogus")

    def test_cache_keys_distinct_per_fidelity(self):
        assert job_key(_job(fidelity="packet")) != job_key(_job(fidelity="analytic"))

    def test_analytic_fingerprint_tracks_calibration(self, tmp_path, monkeypatch):
        from repro.analytic import calibrate

        artifact = tmp_path / "calibration.json"
        artifact.write_text(json.dumps({"schema": 1, "coefficients": {}}))
        monkeypatch.setattr(calibrate, "DEFAULT_PATH", str(artifact))
        job = _job(fidelity="analytic")
        first = job_fingerprint(job)
        assert "calibration" in first
        artifact.write_text(
            json.dumps(
                {"schema": 1, "coefficients": {"GMN/smesh/v16": {"kernel": 2.0}}}
            )
        )
        assert job_fingerprint(job)["calibration"] != first["calibration"]
        # Packet jobs never carry a calibration digest.
        assert "calibration" not in job_fingerprint(_job(fidelity="packet"))


class TestExecutorIntegration:
    def test_analytic_jobs_run_inline_with_source_tag(self):
        from repro.exec import SweepExecutor

        executor = SweepExecutor(jobs=4)
        jobs = [_job(fidelity="analytic"), _job("UMN", fidelity="analytic")]
        outcomes = executor.map_outcomes(jobs)
        assert all(o.ok for o in outcomes)
        assert [o.telemetry.source for o in outcomes] == ["analytic", "analytic"]

    def test_run_workload_dispatches_analytic(self):
        from repro.system.run import run_workload_detailed

        result, system = run_workload_detailed(
            get_spec("GMN"),
            get_workload("BP", scale=0.1),
            cfg=SystemConfig(network_model="analytic"),
        )
        assert system is None  # no event engine was built
        assert result.events_executed == 0
        assert result.kernel_ps > 0
