"""Flit-level memory network: wormhole switching, virtual channels, credits.

The authors modeled their network with a cycle-accurate NoC simulator [51];
our default :class:`~repro.network.network.MemoryNetwork` is a faster
packet-level approximation.  This module provides the higher-fidelity
option: a cycle-driven engine with

- packets segmented into channel-width **flits** (16 B at 20 GB/s and a
  1.25 GHz router clock);
- **wormhole switching**: the head flit acquires a route and an output
  virtual channel, body flits follow, the tail releases it;
- **virtual channels**: 2 message classes (request/response, which breaks
  protocol deadlock) x ``vcs_per_class`` VCs with ``vc_buffer_bytes``
  buffers (Section VI-A: 6 VCs/class, 512 B/VC);
- **credit-based flow control**: a flit moves only when the downstream VC
  has buffer space, so congestion backpressures to the source — the effect
  the packet-level model approximates with bounded source windows.

It exposes the same interface as :class:`MemoryNetwork` (``send``,
``set_router_handler``, ``set_terminal_handler``, ``stats``, ``topo``), so
the system builder can swap it in via ``NetworkConfig`` /
``SystemConfig.network_model = "flit"``.  It is several times slower; use
it for validation studies and latency-sensitive experiments.
"""

from __future__ import annotations

import collections
import itertools
from typing import Deque, Dict, List, Optional, Tuple

from ..config import NetworkConfig
from ..errors import SimulationError
from ..sim.engine import Simulator
from .channel import Channel
from .network import MemoryNetwork, NetworkStats, PacketHandler
from .packet import MessageClass, Packet
from .routing import make_routing
from .topology import Topology

#: Flit payload carried per router cycle per channel-width unit (16 B at
#: 20 GB/s / 1.25 GHz).
FLIT_BYTES = 16


class _Flit:
    """One channel-width slice of a packet (slotted: created per 16 B)."""

    __slots__ = ("packet", "is_head", "is_tail", "dst_router")

    def __init__(
        self, packet: Packet, is_head: bool, is_tail: bool, dst_router: int = -1
    ) -> None:
        self.packet = packet
        self.is_head = is_head
        self.is_tail = is_tail
        #: Ejection router chosen at injection (terminal destinations).
        self.dst_router = dst_router


class _VC:
    """One virtual channel's receive buffer at a router input."""

    __slots__ = ("fifo", "route_out", "out_vc", "max_flits")

    def __init__(self, max_flits: int) -> None:
        self.fifo: Deque[_Flit] = collections.deque()
        #: (next_router_or_None, channel_key) chosen by the head flit.
        self.route_out: Optional[Tuple[Optional[int], object]] = None
        self.out_vc: Optional[int] = None
        self.max_flits = max_flits


class FlitNetwork:
    """Cycle-driven flit-level network with the MemoryNetwork interface."""

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
        self._pids = itertools.count()

        self._num_vcs = self.cfg.message_classes * self.cfg.vcs_per_class
        self._vc_flits = max(1, self.cfg.vc_buffer_bytes // FLIT_BYTES)
        self._cycle_ps = self.cfg.router_cycle_ps
        #: Extra cycles a flit spends crossing a router + link (pipeline +
        #: SerDes), modeled as delivery delay into the next input buffer.
        self._hop_cycles = max(
            1, self.cfg.hop_latency_ps // self._cycle_ps
        )

        # Input unit per (router, channel_key): list of VCs.
        # channel_key: a Channel object (router-router or terminal link).
        self._inputs: Dict[Tuple[int, object], List[_VC]] = {}
        # Hot-path mirror of ``_inputs``: units in registration order, the
        # arbitration order the per-cycle scans must preserve.  The active
        # set tracks which units hold buffered flits so idle routers cost
        # nothing per cycle (index -> position in ``_input_units``).
        self._input_units: List[Tuple[Tuple[int, object], List[_VC]]] = []
        self._input_index: Dict[Tuple[int, object], int] = {}
        self._occupancy: List[int] = []
        self._active_inputs: set = set()
        # Credits the *sender* holds for each (channel, vc).
        self._credits: Dict[Tuple[object, int], int] = {}
        # Which (channel, vc) are currently owned by an in-flight packet.
        self._vc_owner: Dict[Tuple[object, int], Packet] = {}
        # Flits in the air: arrival_cycle -> list of (input_idx, vc, flit).
        self._in_air: Dict[int, List[Tuple[int, int, _Flit]]] = {}
        # Packet reassembly at destinations.
        self._pending_source: Deque[Tuple[Packet, object, int]] = collections.deque()
        self._source_queues: Dict[Tuple[object, int], Deque[_Flit]] = {}
        # Router-local loopback injection ports (HMC responses) and the
        # per-source allocated VC, keyed by source-channel identity.
        self._local_ports: Dict[int, Channel] = {}
        self._source_vcs: Dict[object, Optional[int]] = {}

        self._cycle = 0
        self._running = False
        self._active_flits = 0

        for router in range(topo.num_routers):
            for _, ch in topo.adj[router]:
                # ch carries traffic *out of* router; its receive buffers
                # live at ch.dst.
                self._register_channel(ch)
        for atts in topo.terminals.values():
            for att in atts:
                self._register_channel(att.inject)
                self._register_channel(att.eject)

    def _register_channel(self, ch: Channel) -> None:
        dst = ch.dst
        if isinstance(dst, int):
            key = (dst, ch)
            if key not in self._inputs:
                vcs = [_VC(self._vc_flits) for _ in range(self._num_vcs)]
                self._inputs[key] = vcs
                self._input_index[key] = len(self._input_units)
                self._input_units.append((key, vcs))
                self._occupancy.append(0)
        for vc in range(self._num_vcs):
            self._credits[(ch, vc)] = self._vc_flits

    # ------------------------------------------------------------------
    # Public interface (mirrors MemoryNetwork)
    # ------------------------------------------------------------------
    def set_router_handler(self, router: int, handler: PacketHandler) -> None:
        self._router_handlers[router] = handler

    def set_terminal_handler(self, terminal: str, handler: PacketHandler) -> None:
        self._terminal_handlers[terminal] = handler

    #: Packets are built and numbered exactly as on the packet network.
    packet = MemoryNetwork.packet

    def send(self, packet: Packet) -> None:
        packet.injected_at_ps = self.sim.now
        self.stats.injected += 1
        src, dst, topo = packet.src, packet.dst, self.topo
        if isinstance(dst, int):
            self.stats.traffic_bytes[(str(src), dst)] += packet.size_bytes
            dst_router = dst
        elif isinstance(src, str):
            dst_router = packet.eject_router = topo.destination_router(src, str(dst))
        else:
            dst_router = packet.eject_router = topo.nearest_attachment(
                str(dst), int(src)
            ).router
        if isinstance(src, str):
            att = self.routing.select_injection(topo, packet, dst_router, self.sim.now)
            self._enqueue_source(packet, att.inject, dst_router)
        else:
            # Response injected by an HMC at its own router: feed it into
            # the router through a zero-length virtual source on any of its
            # outgoing directions — modeled by enqueuing at the router's
            # loopback source.
            self._enqueue_router_source(packet, int(src), dst_router)
        self._ensure_running()

    # ------------------------------------------------------------------
    # Sources
    # ------------------------------------------------------------------
    def _flits_of(self, packet: Packet, dst_router: int) -> List[_Flit]:
        n = max(1, -(-packet.size_bytes // FLIT_BYTES))
        flits = []
        for i in range(n):
            flits.append(
                _Flit(packet, is_head=(i == 0), is_tail=(i == n - 1), dst_router=dst_router)
            )
        return flits

    def _enqueue_source(self, packet: Packet, channel: Channel, dst_router: int) -> None:
        queue = self._source_queues.setdefault(("inj", channel), collections.deque())
        for flit in self._flits_of(packet, dst_router):
            queue.append(flit)
            self._active_flits += 1

    def _enqueue_router_source(self, packet: Packet, router: int, dst_router: int) -> None:
        queue = self._source_queues.setdefault(("rtr", router), collections.deque())
        for flit in self._flits_of(packet, dst_router):
            queue.append(flit)
            self._active_flits += 1

    # ------------------------------------------------------------------
    # Cycle engine
    # ------------------------------------------------------------------
    def _ensure_running(self) -> None:
        if not self._running:
            self._running = True
            self.sim.after(0, self._tick)

    def _tick(self) -> None:
        self._cycle += 1
        # All flits that move this cycle arrive together ``_hop_cycles``
        # later; one shared bucket replaces a per-flit dict setdefault.
        bucket: List[Tuple[int, int, _Flit]] = []
        self._deliver_in_air()
        self._route_heads()
        self._forward_flits(bucket)
        self._drain_sources(bucket)
        if bucket:
            self._in_air[self._cycle + self._hop_cycles] = bucket
        if self._active_flits > 0 or self._in_air:
            self.sim.after(self._cycle_ps, self._tick)
        else:
            self._running = False

    def _deliver_in_air(self) -> None:
        arrivals = self._in_air.pop(self._cycle, None)
        if not arrivals:
            return
        units = self._input_units
        occupancy = self._occupancy
        active = self._active_inputs
        for idx, vc, flit in arrivals:
            units[idx][1][vc].fifo.append(flit)
            occupancy[idx] += 1
            active.add(idx)

    # -- route computation for waiting head flits -------------------------
    def _route_heads(self) -> None:
        units = self._input_units
        # sorted() restores registration order — the arbitration order the
        # exhaustive dict scan used to give — while touching only inputs
        # that actually hold flits.
        for idx in sorted(self._active_inputs):
            (router, _channel), vcs = units[idx]
            for vc_state in vcs:
                if not vc_state.fifo or vc_state.route_out is not None:
                    continue
                head = vc_state.fifo[0]
                if not head.is_head:
                    raise SimulationError("non-head flit awaiting route")
                vc_state.route_out = self._compute_route(router, head)

    def _compute_route(self, router: int, flit: _Flit) -> Tuple[Optional[int], object]:
        packet = flit.packet
        final = flit.dst_router
        if router == final:
            if isinstance(packet.dst, int):
                return None, ("deliver", router)
            att = self.topo.attachment_at(str(packet.dst), router)
            return None, ("eject", att.eject)
        nbr, ch = self.routing.next_hop(self.topo, packet, router, final, self.sim.now)
        return nbr, ch

    # -- switch traversal --------------------------------------------------
    def _forward_flits(self, bucket: List[Tuple[int, int, _Flit]]) -> None:
        # ``width`` flits per output channel per cycle (a width-w channel
        # aggregates w physical links); iterate active inputs round-robin
        # in registration order (deterministic).
        used_outputs: Dict[int, int] = {}
        units = self._input_units
        occupancy = self._occupancy
        credits = self._credits
        input_index = self._input_index
        for idx in sorted(self._active_inputs):
            (router, channel), vcs = units[idx]
            for in_vc, vc_state in enumerate(vcs):
                if not vc_state.fifo or vc_state.route_out is None:
                    continue
                flit = vc_state.fifo[0]
                nbr, out = vc_state.route_out
                if nbr is None:
                    kind, target = out
                    vc_state.fifo.popleft()
                    occupancy[idx] -= 1
                    self._return_credit(channel, in_vc)
                    self._active_flits -= 1
                    if flit.is_tail:
                        if kind == "deliver":
                            self._finish(flit.packet, self._router_handlers.get(target))
                        else:
                            self._finish_eject(flit.packet, target)
                        vc_state.route_out = None
                        vc_state.out_vc = None
                    continue
                out_channel = out
                if used_outputs.get(id(out_channel), 0) >= out_channel.width:
                    continue
                out_vc = vc_state.out_vc
                if out_vc is None:
                    out_vc = self._allocate_vc(out_channel, flit.packet)
                    if out_vc is None:
                        continue  # stall: no free VC downstream
                    vc_state.out_vc = out_vc
                if credits[(out_channel, out_vc)] <= 0:
                    continue  # stall: no buffer space downstream
                # Move the flit.
                vc_state.fifo.popleft()
                occupancy[idx] -= 1
                credits[(out_channel, out_vc)] -= 1
                self._return_credit(channel, in_vc)
                used_outputs[id(out_channel)] = used_outputs.get(id(out_channel), 0) + 1
                out_channel.stats.bytes += FLIT_BYTES
                bucket.append((input_index[(nbr, out_channel)], out_vc, flit))
                if flit.is_head:
                    out_channel.stats.packets += 1
                    flit.packet.hops += 1
                if flit.is_tail:
                    self._vc_owner.pop((out_channel, out_vc), None)
                    vc_state.route_out = None
                    vc_state.out_vc = None
        self._active_inputs = {i for i in self._active_inputs if occupancy[i]}

    def _allocate_vc(self, channel: Channel, packet: Packet) -> Optional[int]:
        base = (
            0
            if packet.message_class is MessageClass.REQUEST
            else self.cfg.vcs_per_class
        )
        for vc in range(base, base + self.cfg.vcs_per_class):
            key = (channel, vc)
            if key not in self._vc_owner and self._credits[key] > 0:
                self._vc_owner[key] = packet
                return vc
        return None

    def _return_credit(self, channel, in_vc: int) -> None:
        if isinstance(channel, Channel):
            self._credits[(channel, in_vc)] = min(
                self._vc_flits, self._credits[(channel, in_vc)] + 1
            )

    # -- injection ---------------------------------------------------------
    def _drain_sources(self, bucket: List[Tuple[int, int, _Flit]]) -> None:
        for key, queue in self._source_queues.items():
            if not queue:
                continue
            kind, target = key
            if kind == "inj":
                channel: Channel = target
                router = channel.dst
                self._drain_one(queue, channel, router, bucket)
            else:
                router = target
                # Router-local source (HMC response): inject through a
                # virtual local port with its own VC set.
                channel = self._router_port(router)
                self._drain_one(queue, channel, router, bucket)

    def _router_port(self, router: int) -> Channel:
        # Loopback channel whose dst is the router itself (the HMC logic
        # layer's local injection port), created on first use.
        port = self._local_ports.get(router)
        if port is None:
            port = Channel(f"local:r{router}", f"hmc{router}", router, self.cfg.channel_gbps)
            self._local_ports[router] = port
            self._register_channel(port)
        return port

    def _drain_one(
        self,
        queue: Deque[_Flit],
        channel: Channel,
        router: int,
        bucket: List[Tuple[int, int, _Flit]],
    ) -> None:
        # Up to ``width`` flits per source per cycle, subject to downstream
        # credit on the head flit's allocated VC.
        state_key = ("srcvc", id(channel))
        input_idx = self._input_index[(router, channel)]
        credits = self._credits
        for _ in range(channel.width):
            if not queue:
                return
            flit = queue[0]
            vc = self._source_vcs.get(state_key)
            if flit.is_head and vc is None:
                vc = self._allocate_vc(channel, flit.packet)
                if vc is None:
                    return
                self._source_vcs[state_key] = vc
            if vc is None:
                return
            if credits[(channel, vc)] <= 0:
                return
            queue.popleft()
            credits[(channel, vc)] -= 1
            channel.stats.bytes += FLIT_BYTES
            bucket.append((input_idx, vc, flit))
            if flit.is_head:
                channel.stats.packets += 1
                flit.packet.hops += 1
            if flit.is_tail:
                self._vc_owner.pop((channel, vc), None)
                self._source_vcs[state_key] = None

    # -- delivery ----------------------------------------------------------
    def _trace_delivery(self, packet: Packet) -> None:
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

    def _finish(self, packet: Packet, handler: Optional[PacketHandler]) -> None:
        if handler is None:
            raise SimulationError(f"no handler for router destination of {packet}")
        self.stats.delivered += 1
        self.stats.total_latency_ps += self.sim.now - packet.injected_at_ps
        self.stats.total_hops += packet.hops
        self._trace_delivery(packet)
        handler(packet)

    def _finish_eject(self, packet: Packet, eject_channel: Channel) -> None:
        handler = self._terminal_handlers.get(str(packet.dst))
        if handler is None:
            raise SimulationError(f"no handler for terminal {packet.dst}")
        eject_channel.stats.bytes += packet.size_bytes
        self.stats.delivered += 1
        self.stats.total_latency_ps += self.sim.now - packet.injected_at_ps
        self.stats.total_hops += packet.hops
        self._trace_delivery(packet)
        handler(packet)

    # ------------------------------------------------------------------
    def traffic_matrix(self, terminals: List[str]) -> List[List[int]]:
        return [
            [self.stats.traffic_bytes.get((t, r), 0) for r in range(self.topo.num_routers)]
            for t in terminals
        ]
