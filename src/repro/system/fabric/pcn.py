"""The NVLink-style processor-centric network organization (Fig. 1(b)).

Same request topology as PCIe — remote clusters are reached through the
owning processor — but over dedicated point-to-point links
(:class:`repro.pcn.pcn.PCNFabric`) instead of the shared switch.
"""

from __future__ import annotations

from ...pcn.pcn import PCNFabric as PCNLinks
from .base import Fabric


class PCNFabric(Fabric):
    paths = {
        "gpu": ("direct", "pcn_fwd", "pcn_fwd"),
        "cpu": ("direct", None, "pcn_fwd"),
    }

    @staticmethod
    def copy_path(cfg):
        # The CPU fans out over its per-GPU links in parallel.
        pcn = cfg.pcn
        return pcn.latency_ps, cfg.num_gpus * pcn.cpu_links_per_gpu * pcn.link_gbps

    def build(self) -> None:
        system = self.system
        system.pcn = PCNLinks(
            system.sim, [f"gpu{g}" for g in range(system.num_gpus)], system.cfg.pcn
        )
        for g in range(system.num_gpus):
            self._build_direct_links(f"gpu{g}", g)
        self._build_direct_links("cpu", system.cpu_cluster)
