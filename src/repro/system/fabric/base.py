"""The fabric strategy interface and shared transport primitives.

A :class:`Fabric` owns everything that is specific to one interconnect
organization (Fig. 8): how the interconnect is built, which path a
request takes to its HMC (one table, :attr:`Fabric.paths`), which
address view the host sees, and how forwarded requests are handled at
the owning device.  :class:`~repro.system.builder.MultiGPUSystem`
constructs the components (HMCs, GPUs, CPU, address mapping) and
delegates every organization decision to its fabric, looked up in the
:mod:`repro.system.fabric` registry.

A path table names one transport kind per (requester, destination); the
kinds are the four mechanisms every organization composes, each a shared
primitive here:

- ``direct``: a :class:`DirectLink` point-to-point hop to a local HMC,
- ``net``: a memory-network request addressed to the destination router,
- ``net_fwd``: a network request addressed to the owning terminal
  (CMN's remote-GPU path), and
- ``pcie_fwd`` / ``pcn_fwd``: a PCIe or PCN transaction to the owning
  device.

A forwarded request continues at the owner of the destination cluster on
the owner's own path (its own table entry), and the response returns the
way it came (Fig. 9(a)).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ...errors import ConfigError, SimulationError
from ...hmc.hmc import HMC
from ...mem import AccessType, DecodedAddress, MemoryAccess
from ...network.channel import Channel
from ...network.network import MemoryNetwork
from ...network.packet import Packet, PacketKind, response_kind, wire_bytes
from ...network.topologies import direct_link_width
from ...sim.engine import Simulator
from ..configs import TransferMode

if TYPE_CHECKING:  # pragma: no cover
    from ..builder import MultiGPUSystem

#: Cost of traversing a GPU on the way to its memory (remote access through
#: a peer GPU, Fig. 9(a)): on-chip crossbar + memory-controller traversal.
GPU_FORWARD_PS = 150_000  # 150 ns

_READ = AccessType.READ
_WRITE = AccessType.WRITE


def _packet_kind(access_type: AccessType) -> PacketKind:
    # ``is``-chain rather than an enum-keyed dict: Enum.__hash__ is a
    # Python-level call and this runs once per request packet.
    if access_type is _READ:
        return PacketKind.READ_REQ
    if access_type is _WRITE:
        return PacketKind.WRITE_REQ
    return PacketKind.ATOMIC_REQ


class NetEnvelope:
    """Payload wrapper for packets crossing the memory network."""

    __slots__ = ("kind", "access", "reply_to")

    def __init__(self, kind: str, access: MemoryAccess, reply_to: str = "") -> None:
        self.kind = kind  # "req" | "resp" | "fwd_req"
        self.access = access
        self.reply_to = reply_to

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NetEnvelope({self.kind!r}, {self.access!r}, reply_to={self.reply_to!r})"


def make_network(cfg, sim: Simulator, topo, routing: str) -> MemoryNetwork:
    """Instantiate the network engine of ``cfg.network_model``: the fast
    packet-level model or the flit-level wormhole/VC/credit model.  Every
    event-driven run picks its engine here, full-system or network-only."""
    model = cfg.network_model
    if model == "flit":
        from ...network.flitnet import FlitNetwork

        return FlitNetwork(sim, topo, cfg.network, routing=routing)
    if model == "analytic":
        raise ConfigError(
            "network model 'analytic' has no event-driven engine: "
            "run_workload hands full-system workloads to "
            "repro.analytic.analytic_run, and network-only traffic needs "
            "the packet or flit tier"
        )
    # SystemConfig admits only NETWORK_MODELS, so this is "packet".
    return MemoryNetwork(sim, topo, cfg.network, routing=routing)


def cluster_router(cluster: int, local_hmc: int, hmcs_per_cluster: int) -> int:
    """Router of a cluster's local HMC on a GMN or UMN network: the
    topology builders number routers cluster by cluster."""
    return cluster * hmcs_per_cluster + local_hmc


class DirectLink:
    """A device's point-to-point connection to one local HMC (no network)."""

    def __init__(
        self,
        sim: Simulator,
        terminal: str,
        hmc: HMC,
        gbps: float,
        width: int,
        serdes_ps: int,
        header_bytes: int,
    ) -> None:
        self.sim = sim
        self.hmc = hmc
        self.serdes_ps = serdes_ps
        self.header_bytes = header_bytes
        self.req = Channel(f"{terminal}=>{hmc.name}", terminal, hmc.name, gbps, width)
        self.resp = Channel(f"{hmc.name}=>{terminal}", hmc.name, terminal, gbps, width)

    def access(self, access: MemoryAccess, on_done: Callable[[], None]) -> None:
        req_size = wire_bytes(access.type, access.size, self.header_bytes)
        arrive = self.req.transmit(req_size, self.sim.now + self.serdes_ps)
        self.sim.at(
            arrive,
            partial(self.hmc.access, access, partial(self._served, on_done)),
        )

    def _served(self, on_done: Callable[[], None], access: MemoryAccess) -> None:
        resp_size = wire_bytes(access.type, access.size, self.header_bytes, True)
        done_at = self.resp.transmit(resp_size, self.sim.now + self.serdes_ps)
        self.sim.at(done_at, on_done)


#: The transport kinds a path table names (docs/architecture.md §6); the
#: forwarded kinds go through the owner of the destination cluster.
PATH_KINDS = ("direct", "net", "net_fwd", "pcie_fwd", "pcn_fwd")


class Fabric:
    """Strategy for one interconnect organization.

    A subclass implements :meth:`build` (construct the interconnect on the
    system) and declares its request paths in :attr:`paths`.  The packet
    tier binds those paths to the shared transport primitives below once
    (:meth:`bind_paths`); the analytic tier costs the same table with its
    closed-form legs.
    """

    #: Request paths (Fig. 8): requester -> transport kind to (its own
    #: cluster, the CPU cluster, a remote GPU cluster), from
    #: :data:`PATH_KINDS`.  The CPU's own cluster is the CPU cluster, so
    #: its middle entry is never read.
    paths: Dict[str, Tuple[Optional[str], ...]] = {}

    #: Whether the CPU's network requests ride the pass-through overlay.
    cpu_pass_through = False

    #: ``(spec, cfg) -> Topology`` of this organization's memory network,
    #: or None when it has none; the analytic tier routes over it too.
    network_topology = None

    #: (cluster, local HMC, HMCs per cluster) -> router index on this
    #: organization's network; the analytic tier reads the same map.
    router_of = staticmethod(cluster_router)

    def __init__(self, system: "MultiGPUSystem") -> None:
        self.system = system
        #: Packet header size, read once per request/response message.
        self._header = system.cfg.network.header_bytes
        #: [terminal cluster][destination cluster] -> bound transport call.
        self._ports: List[List[Callable[..., None]]] = []

    # -- the organization-specific surface ------------------------------
    def build(self) -> None:
        """Construct the interconnect (networks, switches, direct links)."""
        raise NotImplementedError

    @staticmethod
    def copy_path(cfg) -> Optional[Tuple[int, float]]:
        """(latency ps, GB/s) of a blocking host<->device copy, or None
        when the organization performs no memcpy."""
        return None

    @classmethod
    def path(cls, terminal_cluster: int, cluster: int, cpu_cluster: int) -> str:
        """Transport kind from the requester whose cluster is
        ``terminal_cluster`` to ``cluster`` (:attr:`paths`)."""
        row = cls.paths["cpu" if terminal_cluster == cpu_cluster else "gpu"]
        if cluster == terminal_cluster:
            return row[0]
        return row[1] if cluster == cpu_cluster else row[2]

    # -- the request paths ----------------------------------------------
    def bind_paths(self) -> None:
        """Bind every (terminal, destination cluster) pair to its transport
        primitive; run once, after :meth:`build`."""
        system = self.system
        clusters = range(system.num_gpus + 1)
        self._ports = [
            [self._transport(tc, c) for c in clusters] for tc in clusters
        ]

    def _transport(self, terminal_cluster: int, cluster: int):
        system = self.system
        cpu = system.cpu_cluster
        terminal = "cpu" if terminal_cluster == cpu else f"gpu{terminal_cluster}"
        owner = "cpu" if cluster == cpu else f"gpu{cluster}"
        kind = self.path(terminal_cluster, cluster, cpu)
        if cluster == terminal_cluster and kind not in ("direct", "net"):
            # A forwarded request lands at the owner's own path.
            raise ConfigError(
                f"{type(self).__name__}: {terminal} cannot forward to itself "
                f"({kind!r} to its own cluster)"
            )
        if kind == "direct":
            return partial(self._direct, terminal)
        if kind == "net":
            pass_through = terminal == "cpu" and self.cpu_pass_through
            return partial(self._net_request, terminal, pass_through)
        if kind == "net_fwd":
            return partial(self._net_forwarded, terminal, owner)
        if kind == "pcie_fwd":
            return partial(self._forwarded, system.pcie, terminal, owner)
        if kind == "pcn_fwd":
            return partial(self._forwarded, system.pcn, terminal, owner)
        raise ConfigError(
            f"{type(self).__name__} path {terminal}->cluster {cluster} is "
            f"{kind!r}; valid: {', '.join(PATH_KINDS)}"
        )

    def gpu_request(
        self, gpu_id: int, access: MemoryAccess, on_done: Callable[[], None]
    ) -> None:
        """Route one GPU memory access to the HMC that owns it (the GPU's
        memory port)."""
        decoded = access.decoded
        if decoded is None:
            raise SimulationError("GPU request without decoded address")
        self._ports[gpu_id][decoded.cluster](access, on_done)

    def cpu_request(self, access: MemoryAccess, on_done: Callable[[], None]) -> None:
        """Route one CPU memory access (applies :meth:`host_view` first)."""
        access = self.host_view(access)
        self._ports[self.system.cpu_cluster][access.decoded.cluster](access, on_done)

    def host_view(self, access: MemoryAccess) -> MemoryAccess:
        """Under memcpy transfer, the host works on its own copy in CPU
        memory, so host accesses to kernel buffers are served by the CPU
        cluster."""
        system = self.system
        if (
            system.spec.transfer is TransferMode.MEMCPY
            and access.decoded is not None
            and access.decoded.cluster != system.cpu_cluster
        ):
            decoded = DecodedAddress(
                cluster=system.cpu_cluster,
                local_hmc=access.decoded.local_hmc,
                vault=access.decoded.vault,
                bank=access.decoded.bank,
                row=access.decoded.row,
            )
            return MemoryAccess(
                paddr=access.paddr,
                size=access.size,
                type=access.type,
                requester=access.requester,
                decoded=decoded,
                aid=access.aid,
            )
        return access

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_pcie_switch(self) -> None:
        from ...pcie.pcie import PCIeSwitch

        system = self.system
        system.pcie = PCIeSwitch(system.sim, system.cfg.pcie)
        system.pcie.attach("cpu")
        for g in range(system.num_gpus):
            system.pcie.attach(f"gpu{g}")

    def _build_direct_links(self, terminal: str, cluster: int) -> None:
        system = self.system
        width = direct_link_width(system.cfg, terminal)
        for lc in range(system.hmcs_per_cluster):
            system._direct_links[(terminal, cluster, lc)] = DirectLink(
                system.sim,
                terminal,
                system.hmcs[(cluster, lc)],
                system.cfg.network.channel_gbps,
                width,
                system.cfg.network.serdes_ps,
                system.cfg.network.header_bytes,
            )

    def _register_routers(self, clusters) -> None:
        """Serve each HMC of ``clusters`` at its router (:attr:`router_of`)."""
        system = self.system
        assert system.network is not None
        for cluster in clusters:
            for lc in range(system.hmcs_per_cluster):
                router = self.router_of(cluster, lc, system.hmcs_per_cluster)
                system.network.set_router_handler(
                    router,
                    partial(self._on_router_packet, router, system.hmcs[(cluster, lc)]),
                )

    # ------------------------------------------------------------------
    # Transport primitives
    # ------------------------------------------------------------------
    def _direct(
        self, terminal: str, access: MemoryAccess, on_done: Callable[[], None]
    ) -> None:
        decoded = access.decoded
        link = self.system._direct_links[(terminal, decoded.cluster, decoded.local_hmc)]
        link.access(access, on_done)

    def _net_request(
        self,
        terminal: str,
        pass_through: bool,
        access: MemoryAccess,
        on_done: Callable[[], None],
    ) -> None:
        system = self.system
        assert system.network is not None
        decoded = access.decoded
        system._pending[access.aid] = on_done
        packet = system.network.packet(
            _packet_kind(access.type),
            terminal,
            self.router_of(decoded.cluster, decoded.local_hmc, system.hmcs_per_cluster),
            wire_bytes(access.type, access.size, self._header),
            NetEnvelope("req", access, terminal),
            pass_through,
        )
        system.network.send(packet)

    def _net_forwarded(
        self,
        terminal: str,
        owner_terminal: str,
        access: MemoryAccess,
        on_done: Callable[[], None],
    ) -> None:
        """CMN: reach a remote GPU's memory through the network and the
        remote GPU itself (no HMC-to-HMC path exists)."""
        system = self.system
        assert system.network is not None
        system._pending[access.aid] = on_done
        packet = system.network.packet(
            _packet_kind(access.type),
            terminal,
            owner_terminal,
            wire_bytes(access.type, access.size, self._header),
            NetEnvelope("fwd_req", access, terminal),
        )
        system.network.send(packet)

    def _forwarded(
        self,
        link,
        terminal: str,
        owner_terminal: str,
        access: MemoryAccess,
        on_done: Callable[[], None],
    ) -> None:
        """Fig. 9(a) path over ``link`` (the PCIe switch or the PCN links)
        to the owning device, which forwards the request and returns the
        response over the same link."""
        req_bytes = wire_bytes(access.type, access.size, self._header)
        link.transaction(
            terminal,
            owner_terminal,
            req_bytes,
            partial(
                self._fwd_at_owner, link, terminal, owner_terminal, access, on_done
            ),
        )

    def _fwd_at_owner(
        self,
        link,
        terminal: str,
        owner_terminal: str,
        access: MemoryAccess,
        on_done: Callable[[], None],
    ) -> None:
        """The request reached the owning device; it reaches its own
        cluster on its own path and sends the response back over the
        same link."""
        self.system.sim.after(
            GPU_FORWARD_PS,
            partial(
                self._own_port(access),
                access,
                partial(
                    self._fwd_served, link, terminal, owner_terminal, access, on_done
                ),
            ),
        )

    def _own_port(self, access: MemoryAccess):
        """The owning device's bound path to its own (the destination)
        cluster."""
        cluster = access.decoded.cluster
        return self._ports[cluster][cluster]

    def _fwd_served(
        self,
        link,
        terminal: str,
        owner_terminal: str,
        access: MemoryAccess,
        on_done: Callable[[], None],
    ) -> None:
        resp_bytes = wire_bytes(access.type, access.size, self._header, True)
        self.system.sim.after(
            GPU_FORWARD_PS,
            partial(link.transaction, owner_terminal, terminal, resp_bytes, on_done),
        )

    # ------------------------------------------------------------------
    # Network packet handlers
    # ------------------------------------------------------------------
    def _on_router_packet(self, router: int, hmc: HMC, packet: Packet) -> None:
        envelope: NetEnvelope = packet.payload
        if envelope.kind != "req":
            raise SimulationError(f"router {router} received {envelope.kind} packet")
        hmc.access(envelope.access, partial(self._hmc_served, router, packet))

    def _hmc_served(self, router: int, packet: Packet, access: MemoryAccess) -> None:
        system = self.system
        assert system.network is not None
        envelope: NetEnvelope = packet.payload
        response = system.network.packet(
            response_kind(packet.kind),
            router,
            envelope.reply_to,
            wire_bytes(access.type, access.size, self._header, True),
            NetEnvelope("resp", access),
            packet.pass_through,
        )
        system.network.send(response)

    def _on_terminal_packet(self, packet: Packet) -> None:
        system = self.system
        envelope: NetEnvelope = packet.payload
        access = envelope.access
        if envelope.kind == "resp":
            try:
                on_done = system._pending.pop(access.aid)
            except KeyError:
                raise SimulationError(
                    f"response for unknown access {access.aid}"
                ) from None
            on_done()
        elif envelope.kind == "fwd_req":
            owner = str(packet.dst)
            system.sim.after(
                GPU_FORWARD_PS,
                partial(
                    self._own_port(access),
                    access,
                    partial(self._fwd_req_served, owner, packet),
                ),
            )
        else:
            raise SimulationError(f"unexpected envelope kind {envelope.kind!r}")

    def _fwd_req_served(self, owner: str, packet: Packet) -> None:
        system = self.system
        assert system.network is not None
        envelope: NetEnvelope = packet.payload
        access = envelope.access
        # Built (and numbered) now, sent after the forwarding delay.
        response = system.network.packet(
            response_kind(packet.kind),
            owner,
            envelope.reply_to,
            wire_bytes(access.type, access.size, self._header, True),
            NetEnvelope("resp", access),
        )
        system.sim.after(GPU_FORWARD_PS, partial(system.network.send, response))
