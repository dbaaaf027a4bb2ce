"""Smoke and structure tests for the experiment harnesses.

Full-scale sweeps live in ``benchmarks/``; here each harness runs at a tiny
scale to verify it produces well-formed rows, notes, and renderings.
"""

from repro.experiments import (
    EXPERIMENTS,
    ext_concurrent,
    ext_latency_load,
    ext_mapping,
    fig07_remote_access,
    fig10_traffic,
    fig12_channels,
    fig14_organizations,
    fig15_adaptive,
    fig16_fig17_topologies,
    fig18_overlay,
    fig19_scaling,
    sec3b_scheduler,
)
from repro.experiments.common import ExperimentResult
from tests.conftest import tiny_system_config


class TestCommon:
    def test_result_rendering(self):
        result = ExperimentResult("X", "title", paper_note="claim")
        result.add(a=1, b="x")
        result.add(a=2.5, c=True)
        result.note("observation")
        text = result.render()
        assert "X: title" in text
        assert "claim" in text
        assert "observation" in text
        assert result.columns() == ["a", "b", "c"]

    def test_empty_result_renders(self):
        assert "empty" in ExperimentResult("e", "empty").render()


class TestRegistry:
    def test_all_paper_figures_present(self):
        for fig in ("fig7", "fig10", "fig12", "fig14", "fig15", "fig16",
                    "fig17", "fig18", "fig19", "sec3b"):
            assert fig in EXPERIMENTS

    def test_extensions_present(self):
        for ext in ("ext-mapping", "ext-concurrent", "ext-latency-load"):
            assert ext in EXPERIMENTS

    def test_runners_are_callable(self):
        assert all(callable(fn) for fn in EXPERIMENTS.values())


class TestTinyRuns:
    """Each harness at minimum scale: structure over magnitude."""

    def test_fig07(self):
        r = fig07_remote_access.run(num_ctas=12, lines_per_cta=2,
                                    cfg=tiny_system_config())
        assert len(r.rows) == 6  # 2 systems x 3 distributions
        assert {row["system"] for row in r.rows} == {"PCIe", "GMN"}

    def test_fig10(self):
        r = fig10_traffic.run(scale=0.5, cfg=tiny_system_config(),
                              include_ablation=False)
        assert len(r.rows) == 2
        for row in r.rows:
            assert row["hmc_traffic_max_over_min"] >= 1.0

    def test_fig12(self):
        r = fig12_channels.run(gpu_counts=(4,))
        assert r.rows[0]["saving_pct"] == 50.0

    def test_fig14(self):
        r = fig14_organizations.run(scale=0.2, workloads=["KMN"],
                                    cfg=tiny_system_config())
        assert len(r.rows) == 7  # one per architecture
        assert all(row["total_us"] > 0 for row in r.rows)

    def test_fig15(self):
        r = fig15_adaptive.run(points=[("KMN", 0.2)], cfg=tiny_system_config())
        assert len(r.rows) == 2  # 2 topologies x 1 workload

    def test_fig16_17(self):
        r = fig16_fig17_topologies.run(scale=0.2, workloads=("KMN",),
                                       cfg=tiny_system_config())
        assert len(r.rows) == 5
        assert all(row["energy_uj"] > 0 for row in r.rows)

    def test_fig18(self):
        r = fig18_overlay.run(scale=0.5, workloads=("CG.S",),
                              cfg=tiny_system_config())
        designs = [row["design"] for row in r.rows]
        assert designs == ["smesh", "sfbfly", "overlay"]

    def test_fig19(self):
        r = fig19_scaling.run(scales={"KMN": 0.5}, gpu_counts=(1, 2),
                              cfg=tiny_system_config())
        assert r.rows[0]["x1"] == 1.0
        assert r.rows[0]["x2"] > 1.0

    def test_sec3b(self):
        r = sec3b_scheduler.run(scale=0.2, workloads=("SRAD",),
                                cfg=tiny_system_config())
        row = r.rows[0]
        assert row["static_us"] > 0
        assert row["stealing_us"] > 0

    def test_ext_mapping(self):
        r = ext_mapping.run(scale=0.2, workloads=("SCAN",),
                            cfg=tiny_system_config())
        assert len(r.rows) == 2

    def test_ext_concurrent(self):
        r = ext_concurrent.run(pairs=[("CG.S", 0.5, "CG.S", 0.5)],
                               cfg=tiny_system_config())
        assert r.rows[0]["overlap_speedup"] > 0

    def test_ext_latency_load(self):
        r = ext_latency_load.run(topologies=("sfbfly",), loads=(0.2,),
                                 packets_per_gpu=50)
        assert r.rows[0]["lat@20%"] > 0
