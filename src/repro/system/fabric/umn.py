"""The unified memory network organization (Fig. 8(c)).

One network spans every cluster — GPU and CPU alike.  CPU requests may
ride the pass-through overlay (Section V-C) when the topology provides
one.  CPU and GPUs share the physical memory, so no copy exists.
"""

from __future__ import annotations

from ...network.topologies import build_topology
from .base import Fabric, make_network


def unified_network_topology(spec, cfg):
    """The unified memory network of ``spec.topology`` under ``cfg``:
    every GPU cluster and the CPU's cluster on one network."""
    return build_topology(spec.topology, cfg, include_cpu=True)


class UMNFabric(Fabric):
    paths = {
        "gpu": ("net", "net", "net"),
        "cpu": ("net", None, "net"),
    }
    cpu_pass_through = True
    network_topology = staticmethod(unified_network_topology)

    def build(self) -> None:
        system = self.system
        topo = self.network_topology(system.spec, system.cfg)
        system.network = make_network(system.cfg, system.sim, topo, system.spec.routing)
        self._register_routers(range(system.num_gpus + 1))
        for g in range(system.num_gpus):
            system.network.set_terminal_handler(f"gpu{g}", self._on_terminal_packet)
        system.network.set_terminal_handler("cpu", self._on_terminal_packet)
