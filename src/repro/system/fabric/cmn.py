"""The CPU memory network organization (Fig. 8(a)).

The CPU's local HMCs form a small network that every GPU attaches to
(replacing its PCIe link).  GPU clusters stay direct-attached; a remote
GPU cluster is reached over the network to the remote GPU terminal,
which forwards (the PCIe bottleneck is gone but remote-GPU traversal
remains).
"""

from __future__ import annotations

from ...network.topologies import CMN_GPU_CHANNELS, build_cmn
from .base import Fabric, make_network


def cpu_network_router(cluster: int, local_hmc: int, hmcs_per_cluster: int) -> int:
    """Router of a CPU-cluster HMC on the CPU memory network: the CPU's
    local HMCs are its only routers, ``0..H-1``."""
    return local_hmc


def cpu_network_topology(spec, cfg):
    """The CPU memory network under ``cfg``: the CPU's local HMCs with
    every GPU and the CPU attached (``spec`` names no CMN topology)."""
    return build_cmn(cfg)


class CMNFabric(Fabric):
    paths = {
        "gpu": ("direct", "net", "net_fwd"),
        "cpu": ("net", None, "net_fwd"),
    }
    network_topology = staticmethod(cpu_network_topology)
    router_of = staticmethod(cpu_network_router)

    @staticmethod
    def copy_path(cfg):
        # The copy rides the CPU memory network: the smaller of the CPU's
        # aggregate channel bandwidth and the GPUs' links into the CMN.
        net = cfg.network
        cpu_bw = cfg.cpu.num_channels * net.channel_gbps
        gpu_bw = cfg.num_gpus * CMN_GPU_CHANNELS * net.channel_gbps
        return 2 * net.hop_latency_ps, min(cpu_bw, gpu_bw)

    def build(self) -> None:
        system = self.system
        topo = self.network_topology(system.spec, system.cfg)
        system.network = make_network(system.cfg, system.sim, topo, system.spec.routing)
        self._register_routers([system.cpu_cluster])
        for g in range(system.num_gpus):
            self._build_direct_links(f"gpu{g}", g)
            system.network.set_terminal_handler(f"gpu{g}", self._on_terminal_packet)
        system.network.set_terminal_handler("cpu", self._on_terminal_packet)
