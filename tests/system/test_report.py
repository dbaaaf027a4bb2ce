"""Tests for the full-system statistics report."""

import json

from repro.system import run_workload_detailed
from repro.system.configs import get_spec
from repro.system.report import report_json, system_report
from repro.workloads import get_workload
from tests.conftest import tiny_system_config


def detailed_run(arch="UMN", workload="KMN", scale=0.1):
    return run_workload_detailed(
        get_spec(arch), get_workload(workload, scale), cfg=tiny_system_config()
    )


class TestSystemReport:
    def test_report_structure(self):
        _, system = detailed_run()
        report = system_report(system)
        assert report["architecture"] == "UMN"
        assert report["num_gpus"] == 4
        assert set(report["gpus"]) == {"gpu0", "gpu1", "gpu2", "gpu3"}
        assert report["network"]["delivered"] > 0
        assert report["pages"]["total"] > 0

    def test_gpu_counters_match_run_result(self):
        result, system = detailed_run()
        report = system_report(system)
        total = sum(g["memory_requests"] for g in report["gpus"].values())
        assert total == result.memory_requests

    def test_only_touched_hmcs_reported(self):
        _, system = detailed_run(workload="CG.S", scale=0.5)
        report = system_report(system)
        assert 0 < len(report["hmcs"]) <= 20

    def test_pcie_section_for_pcie_arch(self):
        _, system = detailed_run(arch="PCIe")
        report = system_report(system)
        assert "pcie" in report
        assert "network" not in report

    def test_hottest_channels_sorted_and_capped(self):
        for arch in ("PCIe", "PCIe-ZC", "CMN", "GMN", "UMN", "NVLink", "NVLink-ZC"):
            _, system = detailed_run(arch=arch)
            chans = system_report(system, top_channels=5)["hottest_channels"]
            every = system_report(system, top_channels=10**6)["hottest_channels"]
            assert 0 < len(chans) <= 5, arch
            assert chans == every[:5], arch
            assert every == sorted(every, key=lambda c: -c["utilization"]), arch
            # Utilization is reported unclamped, so busy time beyond the
            # simulated time would show here.
            assert all(0 <= c["utilization"] <= 1 for c in every), (arch, every)
            if arch.startswith(("PCIe", "NVLink")):
                # The processor-centric link bounds these organizations,
                # so it heads the list.
                top = chans[0]
                assert top["name"].startswith(("pcie:", "pcn:")), (arch, chans)
                assert top["utilization"] > 0, (arch, top)

    def test_json_serializable(self):
        _, system = detailed_run()
        parsed = json.loads(report_json(system))
        assert parsed["events_executed"] > 0
