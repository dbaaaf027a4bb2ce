"""The GPU memory network organization (Fig. 8(b), Fig. 9(b)).

All GPU clusters hang off one memory network; the CPU cluster stays
outside it and is reached over PCIe to the CPU, which forwards.
"""

from __future__ import annotations

from ...network.topologies import build_topology
from .base import Fabric, make_network
from .pcie import PCIeFabric


def gpu_network_topology(spec, cfg):
    """The GPU-only memory network of ``spec.topology`` under ``cfg``: the
    GMN interconnect, and the network a network-only run drives."""
    return build_topology(spec.topology, cfg)


class GMNFabric(Fabric):
    paths = {
        "gpu": ("net", "pcie_fwd", "net"),
        "cpu": ("direct", None, "pcie_fwd"),
    }
    network_topology = staticmethod(gpu_network_topology)
    # The GPU network does not help CPU-GPU copies: they cross PCIe.
    copy_path = staticmethod(PCIeFabric.copy_path)

    def build(self) -> None:
        system = self.system
        topo = self.network_topology(system.spec, system.cfg)
        system.network = make_network(system.cfg, system.sim, topo, system.spec.routing)
        self._register_routers(range(system.num_gpus))
        for g in range(system.num_gpus):
            system.network.set_terminal_handler(f"gpu{g}", self._on_terminal_packet)
        self._build_direct_links("cpu", system.cpu_cluster)
        self._build_pcie_switch()
