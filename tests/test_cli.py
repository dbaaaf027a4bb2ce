"""Tests for the command-line interface."""

import functools
import inspect
import re

import pytest

from repro.cli import main
from repro.experiments import EXPERIMENTS
from repro.experiments.common import ExperimentResult


@pytest.fixture
def built(monkeypatch):
    """Registers a ``figx`` experiment that records the executor the CLI
    hands it; the list holds one executor per ``figx`` invocation."""
    seen = []

    def figx(executor):
        seen.append(executor)
        return ExperimentResult("figx", "synthetic")

    monkeypatch.setitem(EXPERIMENTS, "figx", figx)
    return seen


class TestList:
    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "experiments:" in out
        assert "fig14" in out
        assert "UMN" in out

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        assert "workloads:" in capsys.readouterr().out


class TestExperiments:
    def test_fig12_runs(self, capsys):
        assert main(["fig12"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 12" in out
        assert "48" in out  # dFBFLY channel count at 4 GPUs

    def test_every_experiment_registered_as_subcommand(self):
        # Argparse would raise SystemExit(2) for unknown subcommands; probe
        # with --help-free dry runs is too slow, so just check the registry
        # names are valid identifiers for the parser.
        for name in EXPERIMENTS:
            assert " " not in name

    def test_every_experiment_takes_the_same_options(self, capsys):
        # Figure reproductions and ext-* explorations share one flag
        # surface: no option may prune points or otherwise apply to one
        # kind of experiment only.
        surfaces = {}
        for name in EXPERIMENTS:
            with pytest.raises(SystemExit) as exc:
                main([name, "--help"])
            assert exc.value.code == 0
            options = re.findall(
                r"(?<![\w-])--?[A-Za-z][\w-]*", capsys.readouterr().out
            )
            surfaces[name] = set(options)
        reference = surfaces["fig14"]
        assert {"--scale", "--jobs", "--keep-going"} <= reference
        assert {n: s for n, s in surfaces.items() if s != reference} == {}

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["fig99"])


class TestScaleWarning:
    def test_warns_when_scale_is_dropped(self, capsys):
        # fig12 is analytic (no scale parameter); the flag must not be
        # silently ignored.
        assert main(["fig12", "--scale", "0.5"]) == 0
        err = capsys.readouterr().err
        assert "does not take --scale" in err

    def test_no_warning_for_scaled_experiment(self, capsys):
        assert main(["fig12"]) == 0
        assert "does not take --scale" not in capsys.readouterr().err

    def test_scale_follows_the_runner_signature(self, monkeypatch, capsys):
        seen = {}

        def scaled(scale=0.25):
            seen["scaled"] = scale
            return ExperimentResult("scaled", "synthetic")

        def unscaled():
            seen["unscaled"] = True
            return ExperimentResult("unscaled", "synthetic")

        monkeypatch.setitem(EXPERIMENTS, "scaled", scaled)
        monkeypatch.setitem(EXPERIMENTS, "unscaled", unscaled)
        assert main(["scaled", "--scale", "0.05"]) == 0
        assert seen["scaled"] == 0.05
        assert "does not take --scale" not in capsys.readouterr().err
        assert main(["unscaled", "--scale", "0.05"]) == 0
        assert seen["unscaled"]
        assert "does not take --scale" in capsys.readouterr().err

    def test_every_scaled_runner_gets_scale(self, monkeypatch, capsys):
        # Stand-ins with each real runner's signature, so the CLI decides
        # from the registry without running any sweep.
        received = {}

        def stand_in(name, runner):
            @functools.wraps(runner)
            def run(**kwargs):
                received[name] = kwargs.get("scale")
                return ExperimentResult(name, "synthetic")

            return run

        for name, runner in list(EXPERIMENTS.items()):
            monkeypatch.setitem(EXPERIMENTS, name, stand_in(name, runner))
        for name, runner in list(EXPERIMENTS.items()):
            assert main([name, "--scale", "0.05"]) == 0
            takes_scale = "scale" in inspect.signature(runner).parameters
            assert received[name] == (0.05 if takes_scale else None), name
            warned = "does not take --scale" in capsys.readouterr().err
            assert warned != takes_scale, name
        assert {"ext-flit", "ext-pcn", "ext-sensitivity"} <= {
            name for name, scale in received.items() if scale == 0.05
        }


class TestRunCommand:
    def test_run_workload(self, capsys):
        assert main(["run", "KMN", "--arch", "UMN", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "kernel_us" in out
        # Satellite: as_row() must surface the HMC row-hit rate and the
        # memory request count.
        assert "hmc_row_hit" in out
        assert "memory_requests" in out

    def test_run_vec_microbenchmark(self, capsys):
        assert main(["run", "VEC", "--arch", "UMN", "--scale", "0.1"]) == 0
        assert "vectorAdd" in capsys.readouterr().out

    def test_run_with_report_flag(self, tmp_path, capsys):
        import json

        path = tmp_path / "report.json"
        assert main(
            ["run", "VEC", "--arch", "UMN", "--scale", "0.1",
             "--report", str(path)]
        ) == 0
        report = json.loads(path.read_text())
        assert report["architecture"] == "UMN"
        assert "gpus" in report and "hmcs" in report

    def test_run_with_trace_and_timeseries(self, tmp_path, capsys):
        import json

        trace = tmp_path / "t.json"
        report = tmp_path / "r.json"
        assert main(
            ["run", "VEC", "--arch", "UMN", "--scale", "0.1",
             "--trace", str(trace), "--timeseries", "0.1",
             "--report", str(report)]
        ) == 0
        parsed = json.loads(trace.read_text())
        cats = {e.get("cat") for e in parsed["traceEvents"] if "cat" in e}
        assert {"kernel", "cta", "packet", "vault"} <= cats
        assert "timeseries" in json.loads(report.read_text())

    def test_run_with_profile(self, capsys):
        assert main(
            ["run", "VEC", "--arch", "UMN", "--scale", "0.1", "--profile"]
        ) == 0
        assert "events/s" in capsys.readouterr().out

    def test_experiment_with_trace(self, tmp_path, capsys):
        import json

        trace = tmp_path / "t.json"
        assert main(["fig12", "--trace", str(trace)]) == 0
        # fig12 is analytic (builds no systems), but the trace file must
        # still be written and be valid Chrome trace JSON.
        assert "traceEvents" in json.loads(trace.read_text())

    def test_run_rejects_nonpositive_timeseries_interval(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "VEC", "--timeseries", "-1"])
        assert "positive" in capsys.readouterr().err

    def test_run_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["run", "MATMUL"])

    def test_run_rejects_unknown_arch(self):
        with pytest.raises(SystemExit):
            main(["run", "KMN", "--arch", "NVLINK"])


class TestPerfFlags:
    def test_jobs_flag_installs_default(self, built, capsys):
        assert main(["figx", "--jobs", "2"]) == 0
        assert built[0].jobs == 2

    def test_jobs_rejects_zero(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig12", "--jobs", "0"])
        assert "worker count" in capsys.readouterr().err

    def test_cache_flag_installs_memory_cache(self, built, capsys):
        assert main(["figx", "--cache"]) == 0
        cache = built[0].cache
        assert cache is not None and cache.path is None

    def test_cache_flag_with_dir(self, built, tmp_path, capsys):
        assert main(["figx", "--cache", str(tmp_path / "c")]) == 0
        cache = built[0].cache
        assert cache is not None and cache.path is not None

    def test_all_runs_every_experiment_on_one_executor(self, monkeypatch, capsys):
        # One executor per invocation: `repro all` shares its CostBook
        # and warm pool across the experiments.
        seen = []

        def fake(executor):
            seen.append(executor)
            return ExperimentResult("fake", "synthetic")

        monkeypatch.setattr("repro.cli.EXPERIMENTS", {"fa": fake, "fb": fake})
        assert main(["all", "--jobs", "2", "--cache"]) == 0
        assert len(seen) == 2 and seen[0] is seen[1]
        assert seen[0].jobs == 2 and seen[0].cache is not None

    def test_cache_dir_env_applies_without_flag(
        self, built, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert main(["figx"]) == 0
        assert main(["figx", "--cache"]) == 0
        assert str(built[0].cache.path).endswith("env")
        assert built[1].cache.path is None  # the flag beats the variable

    def test_trace_stays_parallel_and_merges(self, built, tmp_path, capsys):
        import json

        trace = tmp_path / "t.json"
        assert main(["figx", "--jobs", "2", "--trace", str(trace)]) == 0
        # A trace-only sweep no longer forces serial execution: workers
        # record per-job traces and the parent merges them.
        assert built[0].jobs == 2
        assert built[0].trace_dir is not None and built[0].obs is None
        assert "merged" in capsys.readouterr().out
        assert "traceEvents" in json.loads(trace.read_text())

    def test_in_process_obs_flags_force_serial(self, built, capsys):
        assert main(["figx", "--jobs", "2", "--timeseries"]) == 0
        assert "running serially" in capsys.readouterr().err
        assert built[0].jobs == 1 and built[0].obs is not None

    def test_progress_jsonl_streams_and_writes_runlog(
        self, tmp_path, capsys, monkeypatch
    ):
        import json

        monkeypatch.chdir(tmp_path)
        assert main(["fig12", "--progress", "jsonl"]) == 0
        # fig12 is analytic (no sweep jobs), but --progress jsonl still
        # implies a flight-recorder artifact with a summary record.
        runlog = tmp_path / "RUNLOG_fig12.jsonl"
        records = [json.loads(line) for line in runlog.read_text().splitlines()]
        assert records[-1]["record"] == "summary"
        assert "runlog ->" in capsys.readouterr().out

    def test_runlog_flag_and_flight_line(self, tmp_path, capsys, monkeypatch):
        import json

        from repro.exec import JobTelemetry, code_version
        from repro.experiments import EXPERIMENTS
        from repro.experiments.common import ExperimentResult

        def fake():
            result = ExperimentResult("figx", "synthetic")
            result.add(point="p0", value=1)
            result.telemetry.append(
                JobTelemetry("p0", source="run", wall_s=0.5, events=1000,
                             peak_pending=10, worker_pid=42)
            )
            return result

        monkeypatch.setitem(EXPERIMENTS, "figx", fake)
        assert main(["figx", "--runlog", str(tmp_path)]) == 0
        records = [
            json.loads(line)
            for line in (tmp_path / "RUNLOG_figx.jsonl").read_text().splitlines()
        ]
        assert [r["record"] for r in records] == ["job", "summary"]
        assert records[0]["events_per_sec"] == 2000.0
        summary = records[-1]
        assert summary["ran"] == 1 and summary["events"] == 1000
        # The invocation's own figures ride in the summary.
        assert summary["wall_s"] >= 0 and summary["rows"] == 1
        assert summary["fidelity"] == "packet" and summary["schedule"] == "lpt"
        assert summary["code_version"] == code_version()
        out = capsys.readouterr().out
        assert "flight: 1 ran" in out and "runlog ->" in out


class TestRobustnessFlags:
    def test_keep_going_flag_installs_default(self, built, capsys):
        assert main(["figx", "--keep-going"]) == 0
        assert built[0].keep_going is True

    def test_watchdog_flags_install_defaults(self, built, capsys):
        from repro.sim.watchdog import resolve_limits

        assert main(["figx", "--max-events", "5000", "--wall-limit", "2.5"]) == 0
        executor = built[0]
        assert (executor.max_events, executor.wall_s) == (5000, 2.5)
        # The limits ride in the config of every job the sweep builds.
        assert resolve_limits(executor.job("UMN", "VEC").cfg) == (5000, 2.5)

    def test_run_watchdog_trip_exits_nonzero(self, capsys):
        rc = main(
            ["run", "VEC", "--arch", "UMN", "--scale", "0.1",
             "--max-events", "50"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "watchdog" in err and "livelocked" in err

    def test_run_generous_watchdog_is_harmless(self, capsys):
        assert main(
            ["run", "VEC", "--arch", "UMN", "--scale", "0.1",
             "--max-events", "100000000"]
        ) == 0
        assert "vectorAdd" in capsys.readouterr().out

    def test_experiment_failures_exit_3(self, capsys, monkeypatch):
        from repro.exec import JobFailure
        from repro.experiments import EXPERIMENTS
        from repro.experiments.common import ExperimentResult

        def fake():
            result = ExperimentResult("figx", "synthetic")
            result.add(point="healthy", value=1)
            result.failures.append(
                JobFailure("bad-point", "RuntimeError", "boom", "tb")
            )
            return result

        monkeypatch.setitem(EXPERIMENTS, "figx", fake)
        assert main(["figx"]) == 3
        captured = capsys.readouterr()
        assert "bad-point: RuntimeError: boom" in captured.out
        assert "1 failed" in captured.err

    def test_experiment_sweep_abort_exits_1(self, capsys, monkeypatch):
        from repro.errors import SweepError
        from repro.exec import JobFailure
        from repro.experiments import EXPERIMENTS

        def fake():
            raise SweepError(
                "sweep point 'bad-point' failed",
                failures=[JobFailure("bad-point", "RuntimeError", "boom", "tb\n")],
            )

        monkeypatch.setitem(EXPERIMENTS, "figx", fake)
        assert main(["figx"]) == 1
        err = capsys.readouterr().err
        assert "aborted" in err and "bad-point" in err


class TestSchedulerFlag:
    def test_run_accepts_registered_policy(self, capsys):
        assert main(
            ["run", "VEC", "--arch", "UMN", "--scale", "0.1",
             "--scheduler", "fcfs"]
        ) == 0
        assert "vectorAdd" in capsys.readouterr().out

    def test_unknown_policy_rejected_with_listing(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "VEC", "--scheduler", "nope"])
        err = capsys.readouterr().err
        assert "unknown scheduler" in err
        assert "fcfs" in err and "qos_staged" in err

    def test_run_analytic_plus_scheduler_exits_2(self, capsys):
        rc = main(
            ["run", "VEC", "--arch", "UMN", "--scale", "0.1",
             "--fidelity", "analytic", "--scheduler", "fcfs"]
        )
        assert rc == 2
        assert "analytic tier" in capsys.readouterr().err

    def test_experiment_flag_installs_sweep_default(self, built, capsys):
        assert main(["figx", "--scheduler", "frfcfs_cap"]) == 0
        assert built[0].scheduler == "frfcfs_cap"
        assert built[0].job("UMN", "VEC").cfg.hmc.scheduler == "frfcfs_cap"

    def test_experiment_analytic_plus_scheduler_exits_2(self, capsys):
        # fig12 runs on the analytic tier by default at tiny scale?  Use
        # an explicit fidelity override so the combination is rejected at
        # config construction inside the sweep, surfacing as exit 2.
        rc = main(["fig14", "--scale", "0.01", "--fidelity", "analytic",
                   "--scheduler", "fcfs"])
        assert rc == 2
        assert "analytic tier" in capsys.readouterr().err
