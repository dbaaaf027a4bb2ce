"""Network-only and concurrent-kernel runs are ordinary sweep jobs.

A latency-load point is a ``SystemSpec`` whose workload is an
:class:`~repro.network.traffic.OfferedLoad`; ext-concurrent's pairs are
factory workloads run with the ``concurrent`` run keyword.  Both go
through the executor, so the watchdog, cache, pool and telemetry apply.
"""

import os

import pytest

from repro.cli import main
from repro.config import SystemConfig
from repro.errors import ConfigError, SimulationError
from repro.exec import ResultCache, SweepExecutor, execute_job
from repro.experiments import ext_latency_load
from repro.experiments.ext_concurrent import kernel_pair
from repro.experiments.ext_latency_load import load_point
from repro.network.network import MemoryNetwork
from repro.network.traffic import OfferedLoad
from repro.obs.bind import Observability
from repro.system.configs import get_spec
from repro.system.run import run_workload
from repro.system.spec import SystemSpec
from tests.conftest import tiny_system_config


def small_sweep(executor):
    return ext_latency_load.run(
        topologies=("sfbfly", "smesh"), loads=(0.1, 0.5),
        packets_per_gpu=40, executor=executor,
    )


class TestLatencyLoadJobs:
    def test_point_is_a_serializable_spec(self):
        job = load_point(SweepExecutor(), "smesh", 0.5, SystemConfig(), 40, 5)
        assert job.spec.topology == "smesh"
        assert job.label == "smesh uniform@50%"
        assert SystemSpec.from_json(job.system.to_json()) == job.system
        assert isinstance(job.workload.build(), OfferedLoad)

    def test_point_runs_under_execute_job(self):
        job = load_point(SweepExecutor(), "sfbfly", 0.3, SystemConfig(), 40, 5)
        outcome = execute_job(job)
        assert outcome.ok and outcome.telemetry.source == "run"
        assert outcome.result.net_delivered == 4 * 40
        assert outcome.result.avg_net_latency_ps > 0
        assert outcome.telemetry.events == outcome.result.events_executed > 0

    def test_fidelity_flit_reaches_the_driver(self):
        executor = SweepExecutor(fidelity="flit")
        job = load_point(executor, "sfbfly", 0.8, SystemConfig(), 40, 5)
        assert job.cfg.network_model == "flit"
        packet = execute_job(
            load_point(SweepExecutor(), "sfbfly", 0.8, SystemConfig(), 40, 5)
        )
        assert execute_job(job).result.avg_net_latency_ps != (
            packet.result.avg_net_latency_ps
        )

    @pytest.mark.parametrize("fidelity", ["packet", "flit"])
    def test_point_is_profiled_and_traced(self, fidelity):
        job = load_point(
            SweepExecutor(fidelity=fidelity), "sfbfly", 0.5, SystemConfig(), 40, 5
        )
        plain = execute_job(job).result
        obs = Observability(trace=True, profile=True)
        observed = execute_job(job, obs=obs).result
        assert obs.profiler.events == observed.events_executed > 0
        assert observed == plain
        packets = [e for e in obs.tracer.events if e.get("cat") == "packet"]
        assert len(packets) == observed.net_delivered == 4 * 40
        assert obs.tracer.events[0]["args"]["name"] == "GMN: uniform@50%"

    def test_second_cached_pass_runs_nothing(self, tmp_path):
        first = small_sweep(SweepExecutor(cache=ResultCache(str(tmp_path))))
        second = small_sweep(SweepExecutor(cache=ResultCache(str(tmp_path))))
        assert first.flight_summary()["ran"] == 4
        summary = second.flight_summary()
        assert (summary["ran"], summary["cached"]) == (0, 4)
        assert second.rows == first.rows

    def test_pool_runs_every_point(self):
        result = small_sweep(SweepExecutor(jobs=2))
        assert len(result.telemetry) == 4
        assert all(t.worker_pid != os.getpid() for t in result.telemetry)
        assert result.rows == small_sweep(SweepExecutor()).rows


class TestNetworkOnlyDriver:
    def test_lost_packet_is_an_error(self, monkeypatch):
        send = MemoryNetwork.send
        sent = []

        def lossy(self, packet):
            sent.append(packet)
            if len(sent) > 1:  # the first packet vanishes
                send(self, packet)

        monkeypatch.setattr(MemoryNetwork, "send", lossy)
        traffic = OfferedLoad(0.5, packets_per_gpu=10)
        with pytest.raises(SimulationError, match="delivered 39 of 40 injected"):
            run_workload(get_spec("GMN"), traffic)

    def test_watchdog_trips(self):
        cfg = SystemConfig(watchdog_max_events=50)
        with pytest.raises(SimulationError, match="watchdog: uniform@50% on sfbfly"):
            run_workload(get_spec("GMN"), OfferedLoad(0.5), cfg)

    def test_analytic_tier_rejected(self):
        cfg = SystemConfig(network_model="analytic")
        with pytest.raises(ConfigError, match="no event-driven engine"):
            run_workload(get_spec("GMN"), OfferedLoad(0.5), cfg)

    def test_zero_load_rejected(self):
        with pytest.raises(ConfigError, match="offered load"):
            OfferedLoad(0.0)


class TestConcurrentKwarg:
    def test_concurrent_overlaps_underfilled_kernels(self):
        pair = kernel_pair("CG.S", 0.5, "CG.S", 0.5)
        cfg = tiny_system_config()
        seq = run_workload(get_spec("UMN"), pair, cfg)
        con = run_workload(get_spec("UMN"), pair, cfg, concurrent=True)
        assert con.total_ps < seq.total_ps
        assert len(con.kernel_breakdown_ps) == len(pair.kernels)

    def test_analytic_tier_rejected(self):
        pair = kernel_pair("CG.S", 0.5, "CG.S", 0.5)
        cfg = SystemConfig(network_model="analytic")
        with pytest.raises(ConfigError, match="concurrent kernels"):
            run_workload(get_spec("UMN"), pair, cfg, concurrent=True)


class TestCommandLine:
    def test_max_events_trips_latency_load(self, capsys):
        assert main(["ext-latency-load", "--max-events", "50"]) == 1
        err = capsys.readouterr().err
        assert "watchdog" in err and "livelocked" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["ext-flit", "--fidelity", "packet"],
            ["ext-flit", "--fidelity", "flit"],
            ["ext-latency-load", "--fidelity", "analytic"],
            ["ext-concurrent", "--fidelity", "analytic"],
        ],
    )
    def test_fidelity_the_experiment_fixes_exits_2(self, argv, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(SweepExecutor, "map_outcomes", lambda *a: ran.append(a))
        assert main(argv) == 2
        assert not ran, "no point may run before the rejection"
        assert "--fidelity" in capsys.readouterr().err
