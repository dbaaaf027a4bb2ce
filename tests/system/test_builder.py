"""Tests for full-system assembly and the per-organization request paths."""

import pytest

from repro.errors import SimulationError
from repro.mem import AccessType, MemoryAccess
from repro.system.builder import MultiGPUSystem
from repro.system.configs import TABLE_III
from tests.conftest import tiny_system_config


def build(arch: str, num_gpus=4):
    return MultiGPUSystem(TABLE_III[arch], tiny_system_config(num_gpus))


def issue_gpu_read(system, gpu_id, cluster, local_hmc=0):
    """Send one read from a GPU to a given cluster's HMC; return latency."""
    paddr = system.mapping.page_frame_base(cluster, 5, system.cfg.page_bytes)
    access = MemoryAccess(
        paddr=paddr, size=128, type=AccessType.READ,
        requester=f"gpu{gpu_id}", decoded=system.mapping.decode(paddr),
    )
    done = []
    system._gpu_request(gpu_id, access, lambda: done.append(system.sim.now))
    system.sim.run()
    assert len(done) == 1, "request was lost"
    return done[0]


class TestConstruction:
    @pytest.mark.parametrize("arch", list(TABLE_III))
    def test_builds_every_architecture(self, arch):
        system = build(arch)
        assert len(system.gpus) == 4
        assert len(system.hmcs) == 5 * 4  # 4 GPU clusters + CPU cluster

    def test_pcie_has_no_network(self):
        system = build("PCIe")
        assert system.network is None
        assert system.pcie is not None

    def test_umn_has_no_pcie(self):
        system = build("UMN")
        assert system.pcie is None
        assert system.network is not None
        assert system.network.topo.num_routers == 20

    def test_gmn_has_both(self):
        system = build("GMN")
        assert system.network is not None
        assert system.network.topo.num_routers == 16
        assert system.pcie is not None  # for the CPU link

    def test_cmn_network_is_cpu_cluster_only(self):
        system = build("CMN")
        assert system.network.topo.num_routers == 4


class TestDataClusters:
    def test_memcpy_uses_gpu_clusters(self):
        assert build("PCIe").data_clusters() == [0, 1, 2, 3]

    def test_zero_copy_uses_cpu_cluster(self):
        assert build("PCIe-ZC").data_clusters() == [4]

    def test_umn_uses_everything(self):
        assert build("UMN").data_clusters() == [0, 1, 2, 3, 4]


class TestPageTableWiring:
    def test_translate_wired_to_all_clients(self):
        system = build("UMN")
        table = system.install_page_table()
        # All clients share the one table: same translation everywhere.
        expected = table.translate(12345)
        assert system.gpus[0].translate(12345) == expected
        assert system.gpus[3].translate(12345) == expected
        assert system.cpu.translate(12345) == expected

    def test_placement_override(self):
        system = build("UMN")
        table = system.install_page_table(policy="local", clusters=[2])
        paddr = table.translate(0)
        assert system.mapping.decode(paddr).cluster == 2


class TestRequestPaths:
    def test_local_access_uses_direct_link_on_pcie(self):
        system = build("PCIe")
        issue_gpu_read(system, 0, cluster=0)
        link = system._direct_links[("gpu0", 0, 0)]
        assert link.req.stats.packets == 1
        assert system.pcie.transactions == 0

    def test_remote_access_crosses_pcie_twice(self):
        system = build("PCIe")
        issue_gpu_read(system, 0, cluster=1)
        assert system.pcie.transactions == 2  # request + response
        # Served by the owner's direct link.
        assert system._direct_links[("gpu1", 1, 0)].req.stats.packets == 1

    def test_remote_slower_than_local_on_pcie(self):
        t_local = issue_gpu_read(build("PCIe"), 0, cluster=0)
        t_remote = issue_gpu_read(build("PCIe"), 0, cluster=1)
        assert t_remote > 3 * t_local

    def test_gmn_remote_skips_pcie(self):
        system = build("GMN")
        issue_gpu_read(system, 0, cluster=1)
        assert system.pcie.transactions == 0
        assert system.network.stats.delivered > 0

    def test_gmn_cpu_memory_goes_over_pcie(self):
        system = build("GMN")
        issue_gpu_read(system, 0, cluster=4)
        assert system.pcie.transactions == 2

    def test_cmn_remote_gpu_forwards_through_network(self):
        system = build("CMN")
        issue_gpu_read(system, 0, cluster=1)
        # Request to gpu1 terminal + response back = 2 network deliveries,
        # plus gpu1's direct link served the access.
        assert system.network.stats.delivered == 2
        assert system._direct_links[("gpu1", 1, 0)].req.stats.packets == 1

    def test_cmn_cpu_memory_is_direct_network(self):
        system = build("CMN")
        issue_gpu_read(system, 0, cluster=4)
        assert system.network.stats.delivered == 2  # request + response

    def test_umn_everything_via_network(self):
        system = build("UMN")
        for cluster in (0, 2, 4):
            issue_gpu_read(system, 0, cluster=cluster)
        assert system.network.stats.delivered == 6
        assert not system._direct_links

    def test_gmn_remote_faster_than_pcie_remote(self):
        t_gmn = issue_gpu_read(build("GMN"), 0, cluster=1)
        t_pcie = issue_gpu_read(build("PCIe"), 0, cluster=1)
        assert t_gmn < t_pcie / 3


class TestGpuPort:
    @pytest.mark.parametrize("arch", list(TABLE_III))
    def test_port_is_the_fabric_entry(self, arch):
        system = build(arch)
        for gpu in system.gpus:
            assert gpu.memory_port.func == system.fabric.gpu_request
            assert gpu.memory_port.args == (gpu.gpu_id,)

    def test_undecoded_request_rejected(self):
        system = build("UMN")
        access = MemoryAccess(paddr=0, size=128, type=AccessType.READ, requester="gpu0")
        with pytest.raises(SimulationError, match="^GPU request without decoded address$"):
            system.gpus[0].memory_port(access, lambda: None)


class TestCpuPort:
    def _cpu_read(self, system, cluster):
        paddr = system.mapping.page_frame_base(cluster, 1, 4096)
        access = MemoryAccess(
            paddr=paddr, size=64, type=AccessType.READ,
            requester="cpu", decoded=system.mapping.decode(paddr),
        )
        done = []
        system._cpu_port(access, lambda: done.append(system.sim.now))
        system.sim.run()
        assert len(done) == 1
        return done[0]

    def test_memcpy_mode_redirects_host_to_cpu_cluster(self):
        system = build("PCIe")
        self._cpu_read(system, cluster=1)
        # Redirected: served by a CPU-cluster direct link, no PCIe.
        assert system.pcie.transactions == 0
        served = sum(
            link.req.stats.packets
            for (t, c, _), link in system._direct_links.items()
            if t == "cpu"
        )
        assert served == 1

    def test_umn_cpu_uses_passthrough_flag(self):
        system = MultiGPUSystem(
            TABLE_III["UMN"].with_(topology="overlay"), tiny_system_config(3)
        )
        self._cpu_read(system, cluster=0)
        chains = system.network.topo.passthrough_chains["cpu"]
        pt_bytes = sum(
            ch.stats.bytes
            for chain in chains.values()
            for ch in chain.forward + chain.reverse
        )
        assert pt_bytes > 0
