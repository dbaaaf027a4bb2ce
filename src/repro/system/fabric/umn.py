"""The unified memory network organization (Fig. 8(c)).

One network spans every cluster — GPU and CPU alike.  CPU requests may
ride the pass-through overlay (Section V-C) when the topology provides
one.
"""

from __future__ import annotations

from typing import Callable

from ...mem import MemoryAccess
from ...network.topologies import build_topology
from .base import Fabric, make_network


class UMNFabric(Fabric):
    def build(self) -> None:
        system = self.system
        topo = build_topology(
            system.spec.topology,
            num_gpus=system.num_gpus,
            hmcs_per_gpu=system.hmcs_per_cluster,
            include_cpu=True,
            channel_gbps=system.cfg.network.channel_gbps,
            gpu_channels=system.cfg.gpu.num_channels,
            cpu_channels=system.cfg.cpu.num_channels,
        )
        system.network = make_network(system.cfg, system.sim, topo, system.spec.routing)
        for c in range(system.num_gpus + 1):
            for lc in range(system.hmcs_per_cluster):
                self._register_router(
                    c * system.hmcs_per_cluster + lc, system.hmcs[(c, lc)]
                )
        for g in range(system.num_gpus):
            system.network.set_terminal_handler(f"gpu{g}", self._on_terminal_packet)
        system.network.set_terminal_handler("cpu", self._on_terminal_packet)

    def gpu_request(
        self, gpu_id: int, access: MemoryAccess, on_done: Callable[[], None]
    ) -> None:
        self._net_request(f"gpu{gpu_id}", access, on_done)

    def _cpu_dispatch(
        self, access: MemoryAccess, on_done: Callable[[], None]
    ) -> None:
        self._net_request("cpu", access, on_done, pass_through=True)
