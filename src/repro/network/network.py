"""Event-driven memory-network fabric.

:class:`MemoryNetwork` moves :class:`~repro.network.packet.Packet` objects
over a :class:`~repro.network.topology.Topology`.  Each router traversal
costs the router pipeline + SerDes latency (Section VI-A: 4-stage pipeline at
1.25 GHz, 3.2 ns SerDes) and each channel adds serialization plus queueing
behind earlier traffic.  Pass-through chains (the UMN overlay, Section V-C)
bypass the pipeline/SerDes and cost only the pass-through latency per hop.

Destinations: an ``int`` destination is an HMC router (memory request); a
``str`` destination is a terminal (response back to a GPU/CPU, or
terminal-to-terminal transfers such as CMN memcpy).
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..config import NetworkConfig
from ..errors import SimulationError
from ..sim.engine import Simulator
from .channel import Channel
from .packet import Packet, PacketKind
from .routing import make_routing
from .topology import Topology

PacketHandler = Callable[[Packet], None]


@dataclass
class NetworkStats:
    """Aggregate delivery statistics plus the Fig. 10 traffic matrix."""

    delivered: int = 0
    injected: int = 0
    total_latency_ps: int = 0
    total_hops: int = 0
    #: (source endpoint, destination router) -> bytes, requests only.
    traffic_bytes: Dict[Tuple[str, int], int] = field(
        default_factory=lambda: collections.defaultdict(int)
    )

    @property
    def avg_latency_ps(self) -> float:
        return self.total_latency_ps / self.delivered if self.delivered else 0.0

    @property
    def avg_hops(self) -> float:
        return self.total_hops / self.delivered if self.delivered else 0.0


class MemoryNetwork:
    """The fabric: injection, hop-by-hop forwarding, ejection, delivery."""

    def __init__(
        self,
        sim: Simulator,
        topo: Topology,
        cfg: Optional[NetworkConfig] = None,
        routing: str = "min",
    ) -> None:
        self.sim = sim
        self.topo = topo
        self.cfg = cfg or NetworkConfig()
        self.routing = make_routing(routing, self.cfg.hop_latency_ps)
        self.stats = NetworkStats()
        self._router_handlers: Dict[int, PacketHandler] = {}
        self._terminal_handlers: Dict[str, PacketHandler] = {}
        # Per-instance copies of config latencies: hop_latency_ps is a
        # derived property and these sit on every hop's critical path.
        self._hop_latency_ps = self.cfg.hop_latency_ps
        self._serdes_ps = self.cfg.serdes_ps
        self._passthrough_ps = self.cfg.passthrough_ps
        self._switch_ps = self.cfg.pipeline_stages * self.cfg.router_cycle_ps
        #: This network's packet-id sequence (ids break routing ties).
        self._pids = itertools.count()

    # ------------------------------------------------------------------
    # Handler registration
    # ------------------------------------------------------------------
    def set_router_handler(self, router: int, handler: PacketHandler) -> None:
        self._router_handlers[router] = handler

    def set_terminal_handler(self, terminal: str, handler: PacketHandler) -> None:
        self._terminal_handlers[terminal] = handler

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def packet(
        self,
        kind: PacketKind,
        src: object,
        dst: object,
        size_bytes: int,
        payload: object = None,
        pass_through: bool = False,
    ) -> Packet:
        """A new packet carrying this network's next id.

        Ids are drawn when a packet is built, not when it is sent: a
        driver may build packets long before injecting them, and the ids
        pick between equal-length routes.
        """
        return Packet(
            kind, src, dst, size_bytes, payload, pass_through, next(self._pids)
        )

    def send(self, packet: Packet) -> None:
        """Inject a packet; ``packet.src`` must be a terminal name or router."""
        packet.injected_at_ps = self.sim.now
        stats = self.stats
        stats.injected += 1
        src = packet.src
        dst = packet.dst
        if isinstance(dst, int):
            stats.traffic_bytes[(str(src), dst)] += packet.size_bytes
        if isinstance(src, str):
            self._inject_from_terminal(packet)
        else:
            self._at_router(packet, int(src))

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------
    def _inject_from_terminal(self, packet: Packet) -> None:
        terminal = str(packet.src)
        dst = packet.dst
        topo = self.topo
        dst_router = (
            dst if isinstance(dst, int) else topo.destination_router(terminal, str(dst))
        )
        sim = self.sim
        if packet.pass_through:
            chain_plan = self._passthrough_injection_plan(packet, terminal, dst_router)
            if chain_plan is not None:
                att_router, channels = chain_plan
                att = topo.attachment_at(terminal, att_router)
                arrive = att.inject.transmit(
                    packet.size_bytes, sim.now + self._serdes_ps
                )
                packet.hops += 1
                sim.at(
                    arrive, partial(self._ride_chain, packet, channels, 0, att_router)
                )
                return

        att = self.routing.select_injection(topo, packet, dst_router, sim.now)
        arrive = att.inject.transmit(packet.size_bytes, sim.now + self._serdes_ps)
        packet.hops += 1
        sim.at(arrive, partial(self._at_router, packet, att.router))

    # ------------------------------------------------------------------
    # Pass-through (overlay) paths
    # ------------------------------------------------------------------
    def _passthrough_injection_plan(
        self, packet: Packet, terminal: str, dst_router: int
    ) -> Optional[Tuple[int, List[Channel]]]:
        """If a pass-through packet should ride an overlay chain, return
        its entry router and the chain channels to traverse; else None.

        Following Section V-C, the chain is preferred at low load but a
        congested chain yields to the normal adaptive route.
        """
        chains = self.topo.passthrough_chains.get(terminal)
        if not chains:
            return None
        slice_id = self.topo.slice_of[dst_router]
        chain = chains.get(slice_id)
        if chain is None or dst_router not in chain.routers:
            return None
        head = chain.routers[0]
        if dst_router == head:
            return None  # destination is the terminal's own local HMC
        channels = chain.hops_to(dst_router)
        chain_cost = sum(
            ch.queue_delay_ps(self.sim.now)
            + ch.serialization_ps(packet.size_bytes)
            + self._passthrough_ps
            for ch in channels
        )
        normal_att = self.routing.select_injection(
            self.topo, packet, dst_router, self.sim.now
        )
        normal_cost = (
            normal_att.inject.queue_delay_ps(self.sim.now)
            + self.topo.distance(normal_att.router, dst_router)
            * self._hop_latency_ps
        )
        if chain_cost > normal_cost + self._hop_latency_ps:
            return None
        return head, channels

    def _ride_chain(
        self, packet: Packet, channels: List[Channel], idx: int, cur_router: int
    ) -> None:
        """Traverse chain channels one hop per event at pass-through latency."""
        if idx >= len(channels):
            self._at_router(packet, cur_router, via_chain=True)
            return
        ch = channels[idx]
        arrive = ch.transmit(packet.size_bytes, self.sim.now + self._passthrough_ps)
        packet.hops += 1
        nxt = ch.dst if isinstance(ch.dst, int) else cur_router
        self.sim.at(arrive, partial(self._ride_chain, packet, channels, idx + 1, nxt))

    def _passthrough_return_plan(
        self, packet: Packet, router: int
    ) -> Optional[List[Channel]]:
        """Chain channels from ``router`` back to the chain head for a
        pass-through packet heading to a terminal."""
        chains = self.topo.passthrough_chains.get(str(packet.dst))
        if not chains:
            return None
        chain = chains.get(self.topo.slice_of[router])
        if chain is None or router not in chain.routers:
            return None
        if chain.routers[0] == router:
            return None
        return chain.hops_from(router)

    # ------------------------------------------------------------------
    # Hop processing
    # ------------------------------------------------------------------
    def _at_router(self, packet: Packet, router: int, via_chain: bool = False) -> None:
        """Process a packet that is at ``router``: deliver, eject, or move on."""
        dst = packet.dst
        if isinstance(dst, int):
            if router == dst:
                self._deliver_to_router(packet, router)
                return
            dst_router = dst
        else:
            if packet.pass_through and not via_chain:
                chain_back = self._passthrough_return_plan(packet, router)
                if chain_back is not None:
                    head = self.topo.passthrough_chains[str(dst)][
                        self.topo.slice_of[router]
                    ].routers[0]
                    self._ride_chain(packet, chain_back, 0, head)
                    return
            dst_router = packet.eject_router
            if dst_router is None:
                dst_router = packet.eject_router = self.routing.select_ejection(
                    self.topo, packet, router, self.sim.now
                ).router
            if router == dst_router:
                self._eject(packet, self.topo.attachment_at(str(dst), router))
                return
        now = self.sim.now
        nbr, ch = self.routing.next_hop(self.topo, packet, router, dst_router, now)
        arrive = ch.transmit(packet.size_bytes, now + self._hop_latency_ps)
        packet.hops += 1
        self.sim.at(arrive, partial(self._at_router, packet, nbr))

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _deliver_to_router(self, packet: Packet, router: int) -> None:
        handler = self._router_handlers.get(router)
        if handler is None:
            raise SimulationError(f"no handler registered for router {router}")
        self.sim.after(self._switch_ps, partial(self._finish, packet, handler))

    def _eject(self, packet: Packet, att) -> None:
        handler = self._terminal_handlers.get(att.terminal)
        if handler is None:
            raise SimulationError(f"no handler registered for terminal {att.terminal}")
        arrive = att.eject.transmit(packet.size_bytes, self.sim.now + self._serdes_ps)
        packet.hops += 1
        self.sim.at(arrive, partial(self._finish, packet, handler))

    def _finish(self, packet: Packet, handler: PacketHandler) -> None:
        stats = self.stats
        stats.delivered += 1
        stats.total_latency_ps += self.sim.now - packet.injected_at_ps
        stats.total_hops += packet.hops
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.complete(
                "packet",
                packet.kind.name,
                packet.injected_at_ps,
                self.sim.now - packet.injected_at_ps,
                tid=f"net.{packet.src}",
                args={"dst": str(packet.dst), "hops": packet.hops,
                      "bytes": packet.size_bytes},
            )
        handler(packet)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def traffic_matrix(self, terminals: List[str]) -> List[List[int]]:
        """Bytes sent from each terminal to each router (Fig. 10)."""
        matrix = [
            [self.stats.traffic_bytes.get((t, r), 0) for r in range(self.topo.num_routers)]
            for t in terminals
        ]
        return matrix
