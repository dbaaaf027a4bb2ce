"""Full-system assembly for every Table III architecture.

The system always contains ``num_gpus + 1`` memory clusters of
``hmcs_per_gpu`` HMCs each — one cluster per GPU plus the CPU's cluster —
addressed through the shared :class:`~repro.core.address.AddressMapping`.
What differs between organizations (Fig. 8) is *how a request reaches its
HMC*, and that is entirely the business of the organization's
:class:`~repro.system.fabric.Fabric` strategy (see
:mod:`repro.system.fabric`).

Each fabric declares its request paths as one table (``Fabric.paths``,
the rows of docs/architecture.md §6): per requester, the transport to its
own cluster, the CPU cluster and a remote GPU cluster.

:class:`MultiGPUSystem` itself only constructs the shared components
(HMCs, GPUs, CPU, address mapping) and delegates to the fabric
the registry hands it — it contains no per-organization branches.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..config import SystemConfig
from ..core.address import AddressMapping
from ..core.page_table import PagePlacement, PageTable
from ..core.virtual_gpu import VirtualGPU
from ..cpu.host import HostCPU
from ..errors import SimulationError
from ..gpu.gpu import GPU
from ..hmc.hmc import HMC
from ..mem import MemoryAccess
from ..network.channel import Channel
from ..network.network import MemoryNetwork
from ..obs.bind import Observability
from ..obs.sampler import Sampler
from ..pcie.pcie import PCIeSwitch
from ..pcn.pcn import PCNFabric as PCNLinks
from ..sim.engine import Simulator
from .configs import ArchSpec
from .fabric import make_fabric
from .fabric.base import DirectLink


class MultiGPUSystem:
    """One simulated multi-GPU system instance for a given architecture."""

    def __init__(
        self,
        spec: ArchSpec,
        cfg: Optional[SystemConfig] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.spec = spec
        self.cfg = cfg or SystemConfig()
        self.sim = Simulator()
        G = self.cfg.num_gpus
        H = self.cfg.gpu.hmcs_per_gpu
        self.num_gpus = G
        self.hmcs_per_cluster = H
        self.cpu_cluster = G

        self.mapping = AddressMapping(
            num_clusters=G + 1,
            hmcs_per_cluster=H,
            vaults_per_hmc=self.cfg.hmc.num_vaults,
            banks_per_vault=self.cfg.hmc.banks_per_vault,
            line_bytes=self.cfg.gpu.l2.line_bytes,
            row_bytes=self.cfg.hmc.row_bytes,
            intra_cluster_interleave=self.cfg.intra_cluster_interleave,
        )

        self.hmcs: Dict[Tuple[int, int], HMC] = {}
        for c in range(G + 1):
            for lc in range(H):
                name = f"hmc.c{c}.{lc}"
                self.hmcs[(c, lc)] = HMC(self.sim, self.cfg.hmc, name=name)

        self.gpus: List[GPU] = [GPU(self.sim, g, self.cfg.gpu) for g in range(G)]
        self.cpu = HostCPU(self.sim, self.cfg.cpu)
        self.vgpu = VirtualGPU(self.sim, self.gpus, policy=spec.cta_policy)

        #: Interconnect components, populated by the fabric's build().
        self.network: Optional[MemoryNetwork] = None
        self.pcie: Optional[PCIeSwitch] = None
        self.pcn: Optional[PCNLinks] = None
        self._direct_links: Dict[Tuple[str, int, int], DirectLink] = {}
        self._pending: Dict[int, Callable[[], None]] = {}
        self.page_table: Optional[PageTable] = None

        self.fabric = make_fabric(self)
        self.fabric.build()
        self.fabric.bind_paths()
        self._wire_ports()

        #: Set by Observability.bind() when periodic sampling is enabled.
        self.sampler: Optional[Sampler] = None
        self.obs = obs
        if self.obs is not None:
            self.obs.bind(self)

    # ------------------------------------------------------------------
    # Page table / placement
    # ------------------------------------------------------------------
    def data_clusters(self) -> List[int]:
        """Clusters that back kernel data (:meth:`ArchSpec.data_clusters`)."""
        return self.spec.data_clusters(self.num_gpus)

    def install_page_table(
        self,
        policy: str = "random",
        clusters: Optional[List[int]] = None,
        weights: Optional[List[float]] = None,
        seed: Optional[int] = None,
    ) -> PageTable:
        """Create and wire the shared SKE page table."""
        placement = PagePlacement(
            policy=policy,
            clusters=self.data_clusters() if clusters is None else clusters,
            seed=self.cfg.seed if seed is None else seed,
            weights=weights,
        )
        self.page_table = PageTable(self.mapping, placement, self.cfg.page_bytes)
        table = self.page_table
        for gpu in self.gpus:
            # Each client translates with its home cluster as the
            # first-touch hint (a no-op for the other placement policies).
            gpu.translate = table.client(gpu.gpu_id)
        self.cpu.translate = table.client(self.cpu_cluster)
        return self.page_table

    # ------------------------------------------------------------------
    # Memory ports (delegation to the fabric)
    # ------------------------------------------------------------------
    def _wire_ports(self) -> None:
        # A GPU's port is the fabric's own entry point: every access of
        # every kernel passes through it, so no frame sits in between.
        for gpu in self.gpus:
            gpu.decode = self.mapping.decode
            gpu.memory_port = partial(self.fabric.gpu_request, gpu.gpu_id)
        self.cpu.decode = self.mapping.decode
        self.cpu.memory_port = self._cpu_port

    def _gpu_request(
        self, gpu_id: int, access: MemoryAccess, on_done: Callable[[], None]
    ) -> None:
        """Inject one GPU request as GPU ``gpu_id``'s port would (trace
        replay)."""
        self.fabric.gpu_request(gpu_id, access, on_done)

    def _cpu_port(self, access: MemoryAccess, on_done: Callable[[], None]) -> None:
        if access.decoded is None:
            raise SimulationError("CPU request without decoded address")
        self.fabric.cpu_request(access, on_done)

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def network_channels(self) -> List[Channel]:
        """Channels of the memory network only (Fig. 17 energy scope)."""
        return self.network.topo.all_channels() if self.network is not None else []

    def all_channels(self) -> List[Channel]:
        """The interconnect inventory: every channel in the system, each
        once — the memory network's (:meth:`network_channels`, first),
        then the direct HMC links, the PCIe switch's and the PCN links."""
        channels = self.network_channels()
        for link in self._direct_links.values():
            channels.extend((link.req, link.resp))
        if self.pcie is not None:
            channels.extend(self.pcie.channels())
        if self.pcn is not None:
            channels.extend(self.pcn.channels())
        return channels

    @property
    def hmc_list(self) -> List[HMC]:
        return list(self.hmcs.values())
