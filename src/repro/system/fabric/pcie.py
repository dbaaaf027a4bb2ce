"""The conventional PCIe organization (Fig. 1(a), baseline).

Every device reaches its own cluster over direct links; any remote
cluster is reached over the shared PCIe switch to the owning device,
which forwards to its local HMC (Fig. 9(a)).
"""

from __future__ import annotations

from .base import Fabric


class PCIeFabric(Fabric):
    paths = {
        "gpu": ("direct", "pcie_fwd", "pcie_fwd"),
        "cpu": ("direct", None, "pcie_fwd"),
    }

    @staticmethod
    def copy_path(cfg):
        # The copy crosses the CPU's single PCIe link.
        return cfg.pcie.latency_ps, cfg.pcie.gbps

    def build(self) -> None:
        system = self.system
        self._build_pcie_switch()
        for g in range(system.num_gpus):
            self._build_direct_links(f"gpu{g}", g)
        self._build_direct_links("cpu", system.cpu_cluster)
