"""Tests for the NVLink-style processor-centric network (extension)."""

import math

import pytest

from repro.analytic import analytic_run
from repro.config import PCNConfig
from repro.errors import SimulationError
from repro.mem import AccessType, MemoryAccess
from repro.pcn.pcn import PCNFabric
from repro.sim.engine import Simulator
from repro.system.builder import MultiGPUSystem
from repro.system.configs import EXTENSION_ARCHS, TransferMode, get_spec
from repro.system.run import run_workload
from repro.workloads import get_workload
from tests.conftest import tiny_system_config


class TestFabric:
    def _fabric(self):
        sim = Simulator()
        return sim, PCNFabric(sim, ["gpu0", "gpu1", "gpu2", "gpu3"])

    def test_full_mesh_plus_cpu_links(self):
        _, fabric = self._fabric()
        # C(4,2) GPU pairs + 4 CPU links, one channel each way.
        assert len(fabric.channels()) == 2 * (6 + 4)

    def test_transaction_completes(self):
        sim, fabric = self._fabric()
        done = []
        fabric.transaction("gpu0", "gpu1", 128, lambda: done.append(sim.now))
        sim.run()
        assert done and done[0] >= fabric.cfg.latency_ps

    def test_dedicated_links_do_not_contend_across_pairs(self):
        sim, fabric = self._fabric()
        finish = []
        size = 1 << 20
        fabric.transaction("gpu0", "gpu1", size, lambda: finish.append(sim.now))
        fabric.transaction("gpu2", "gpu3", size, lambda: finish.append(sim.now))
        sim.run()
        assert abs(finish[0] - finish[1]) < 1000  # fully parallel

    def test_same_pair_contends(self):
        sim, fabric = self._fabric()
        finish = []
        size = 1 << 20
        fabric.transaction("gpu0", "gpu1", size, lambda: finish.append(sim.now))
        fabric.transaction("gpu0", "gpu1", size, lambda: finish.append(sim.now))
        sim.run()
        assert finish[1] - finish[0] > 1000

    def test_missing_link_raises(self):
        sim, fabric = self._fabric()
        with pytest.raises(SimulationError):
            fabric.link("gpu0", "gpu9")

    def test_link_width_configurable(self):
        sim = Simulator()
        fat = PCNFabric(sim, ["gpu0", "gpu1"], PCNConfig(links_per_pair=4))
        assert fat.link("gpu0", "gpu1").width == 4


class TestNVLinkArchitecture:
    def test_specs_registered(self):
        assert "NVLink" in EXTENSION_ARCHS
        assert get_spec("nvlink").name == "NVLink"

    def test_system_builds(self):
        system = MultiGPUSystem(get_spec("NVLink"), tiny_system_config())
        assert system.pcn is not None
        assert system.pcie is None
        assert system.network is None

    def test_remote_access_uses_pcn(self):
        system = MultiGPUSystem(get_spec("NVLink"), tiny_system_config())
        paddr = system.mapping.page_frame_base(1, 3, 4096)
        access = MemoryAccess(
            paddr=paddr, size=128, type=AccessType.READ,
            requester="gpu0", decoded=system.mapping.decode(paddr),
        )
        done = []
        system._gpu_request(0, access, lambda: done.append(system.sim.now))
        system.sim.run()
        assert len(done) == 1
        assert system.pcn.transactions == 2  # request + response

    def test_faster_than_pcie_slower_than_umn(self):
        cfg = tiny_system_config()
        wl = lambda: get_workload("BP", 0.2)
        pcie = run_workload(get_spec("PCIe"), wl(), cfg=cfg)
        nvlink = run_workload(get_spec("NVLink"), wl(), cfg=cfg)
        umn = run_workload(get_spec("UMN"), wl(), cfg=cfg)
        t = lambda r: r.kernel_ps + r.memcpy_ps
        assert t(nvlink) < t(pcie)
        assert t(umn) < t(nvlink)

    def test_zero_copy_variant_runs(self):
        r = run_workload(
            get_spec("NVLink-ZC"), get_workload("KMN", 0.2),
            cfg=tiny_system_config(),
        )
        assert r.memcpy_ps == 0
        assert r.kernel_ps > 0


class TestNVLinkHostAndAnalyticPaths:
    """The NVLink paths no figure sweep runs: host steps over the PCN in
    the packet tier, and the analytic tier's PCN routes.  No ratio is
    pinned: there are no NVLink calibration coefficients."""

    def test_packet_host_steps_cross_the_pcn(self):
        # CG.S has host steps; on NVLink they dispatch through the fabric.
        r = run_workload(
            get_spec("NVLink"), get_workload("CG.S", 0.1), cfg=tiny_system_config()
        )
        assert r.host_ps > 0
        assert r.class_served.get("cpu", 0) > 0

    @pytest.mark.parametrize("workload", ["BP", "CG.S"])
    @pytest.mark.parametrize("arch", ["NVLink", "NVLink-ZC"])
    def test_analytic_rows_complete_and_positive(self, arch, workload):
        spec = get_spec(arch)
        row = analytic_run(spec, get_workload(workload, 0.25)).as_row()
        assert (row["workload"], row["arch"]) == (workload, arch)
        numbers = {k: v for k, v in row.items() if k not in ("workload", "arch")}
        assert all(math.isfinite(v) and v >= 0 for v in numbers.values()), row
        for column in ("kernel_us", "total_us", "memory_requests", "hmc_row_hit"):
            assert row[column] > 0, (column, row)
        assert (row["memcpy_us"] > 0) == (spec.transfer is TransferMode.MEMCPY)
        assert (row["host_us"] > 0) == (workload == "CG.S")
