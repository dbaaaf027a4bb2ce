"""Smoke tests for the ext-sched policy sweep."""

from repro.exec import SweepExecutor
from repro.experiments import EXPERIMENTS, ext_sched
from tests.conftest import tiny_system_config

EXPECTED_COLUMNS = {
    "workload",
    "arch",
    "scheduler",
    "total_us",
    "kernel_us",
    "host_us",
    "cpu_wait_ns",
    "gpu_wait_ns",
    "cpu_served",
    "gpu_served",
    "row_hit",
    "wait_fairness",
}


def _tiny_sweep(**kw):
    kw.setdefault("scale", 0.1)
    kw.setdefault("policies", ("frfcfs", "fcfs", "qos_staged"))
    kw.setdefault("archs", ("UMN", "GMN"))
    kw.setdefault("workloads", ("CG.S",))
    kw.setdefault("cfg", tiny_system_config(num_gpus=2, num_sms=2))
    return ext_sched.run(**kw)


class TestExtSched:
    def test_registered(self):
        assert EXPERIMENTS["ext-sched"] is ext_sched.run

    def test_full_grid_with_per_source_columns(self):
        res = _tiny_sweep()
        assert len(res.rows) == 6  # 3 policies x 2 archs x 1 workload
        for row in res.rows:
            assert EXPECTED_COLUMNS <= set(row)
            # CG.S drives both source classes through the vaults.
            assert row["cpu_served"] > 0
            assert row["gpu_served"] > 0
            assert 0.0 < row["wait_fairness"] <= 1.0
        assert {r["scheduler"] for r in res.rows} == {
            "frfcfs",
            "fcfs",
            "qos_staged",
        }
        assert "cpu_wait_ns" in res.render()

    def test_respects_installed_scheduler_default(self):
        # Under `--scheduler X` the sweep collapses to that one policy
        # rather than silently overriding the flag per grid point.
        res = _tiny_sweep(archs=("UMN",), executor=SweepExecutor(scheduler="fcfs"))
        assert {r["scheduler"] for r in res.rows} == {"fcfs"}
        assert any("--scheduler fcfs" in n for n in res.notes)

    def test_jain_fairness_helper(self):
        assert ext_sched._jain(()) == 1.0
        assert ext_sched._jain((5.0, 5.0)) == 1.0
        assert ext_sched._jain((0.0, 3.0)) == 1.0  # absent class ignored
        skewed = ext_sched._jain((1.0, 9.0))
        assert 0.0 < skewed < 1.0
