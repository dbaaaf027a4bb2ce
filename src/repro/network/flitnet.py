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

#: One channel-width slice of a packet: ``(packet, is_head, is_tail,
#: dst_router)``, where ``dst_router`` is the ejection router chosen at
#: injection.  A packet's body flits share one tuple.
Flit = Tuple[Packet, bool, bool, int]


class _VC:
    """One virtual channel's receive buffer at a router input."""

    __slots__ = ("fifo", "route", "out_vc", "max_flits")

    def __init__(self, max_flits: int) -> None:
        self.fifo: Deque[Flit] = collections.deque()
        #: Chosen by the head flit: ``(out_channel, downstream input index,
        #: out_channel's credits)`` for a hop, ``(None, target)`` at the
        #: destination router (see :meth:`FlitNetwork._sink`).
        self.route: Optional[tuple] = None
        self.out_vc: Optional[int] = None
        self.max_flits = max_flits


class _Input:
    """One router input unit: the VCs a channel feeds at its ``router``.

    ``busy`` has bit ``v`` set while VC ``v`` holds flits, so a cycle
    visits only those, in VC order.  ``credits`` are the upstream
    sender's credits for the channel (one per VC), returned as flits
    leave.
    """

    __slots__ = ("router", "vcs", "busy", "credits")

    def __init__(self, router: int, vcs: List[_VC], credits: List[int]) -> None:
        self.router = router
        self.vcs = vcs
        self.busy = 0
        self.credits = credits


class _Source:
    """One injection source: a terminal's inject channel, or a router's
    local port (HMC responses), with the flits waiting to enter it."""

    __slots__ = ("index", "queue", "channel", "input_idx", "credits", "vc")

    def __init__(
        self, index: int, channel: Channel, input_idx: int, credits: List[int]
    ) -> None:
        #: Creation order, the order in which sources drain.
        self.index = index
        self.queue: Deque[Flit] = collections.deque()
        self.channel = channel
        #: The input unit the channel feeds at its router.
        self.input_idx = input_idx
        self.credits = credits
        #: The VC the packet at the queue head holds, None between packets.
        self.vc: Optional[int] = None


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
        self._hop_cycles = max(1, self.cfg.hop_latency_ps // self._cycle_ps)

        # Input unit per (router, channel): a channel (router-router or
        # terminal link) feeds the VCs of one input at its ``dst``.
        self._inputs: Dict[Tuple[int, Channel], List[_VC]] = {}
        # Hot-path mirror of ``_inputs``: units in registration order, the
        # arbitration order the per-cycle pass must preserve.  The active
        # set holds the indices of units with buffered flits, so idle
        # routers cost nothing per cycle.
        self._units: List[_Input] = []
        self._input_index: Dict[Tuple[int, Channel], int] = {}
        self._active_inputs: set = set()
        # Credits the *sender* holds for each channel, one per VC.
        self._credits: Dict[Channel, List[int]] = {}
        # The packet that owns each (channel, vc), None while free.
        self._vc_owner: Dict[Channel, List[Optional[Packet]]] = {}
        # Flits in the air: arrival_cycle -> list of (input_idx, vc, flit).
        self._in_air: Dict[int, List[Tuple[int, int, Flit]]] = {}
        # Injection sources keyed by inject channel or, for a router's
        # local port, by router; by index; and the indices of those with
        # flits waiting.
        self._sources: Dict[object, _Source] = {}
        self._source_list: List[_Source] = []
        self._waiting: set = set()

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
        credits = self._credits[ch] = [self._vc_flits] * self._num_vcs
        self._vc_owner[ch] = [None] * self._num_vcs
        dst = ch.dst
        if isinstance(dst, int):
            key = (dst, ch)
            vcs = [_VC(self._vc_flits) for _ in range(self._num_vcs)]
            self._inputs[key] = vcs
            self._input_index[key] = len(self._units)
            self._units.append(_Input(dst, vcs, credits))

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
            key = att.inject
        else:
            key = src  # an HMC's response enters through its router's local port
        source = self._sources.get(key) or self._add_source(key)
        n = max(1, -(-packet.size_bytes // FLIT_BYTES))
        flits = [(packet, False, False, dst_router)] * n
        if n > 1:
            flits[-1] = (packet, False, True, dst_router)
        flits[0] = (packet, True, n == 1, dst_router)
        source.queue.extend(flits)
        self._active_flits += n
        self._waiting.add(source.index)
        if not self._running:
            self._running = True
            self.sim.after(0, self._tick)

    # ------------------------------------------------------------------
    # Sources
    # ------------------------------------------------------------------
    def _add_source(self, key) -> _Source:
        """The source of ``key``: an inject channel, or a router, whose
        local port (the HMC logic layer's loopback injection channel) is
        made here.  That is the router's first send, which is also the
        order in which sources first drain."""
        channel = key
        if not isinstance(key, Channel):
            channel = Channel(f"local:r{key}", f"hmc{key}", key, self.cfg.channel_gbps)
            self._register_channel(channel)
        source = _Source(
            len(self._source_list),
            channel,
            self._input_index[(channel.dst, channel)],
            self._credits[channel],
        )
        self._sources[key] = source
        self._source_list.append(source)
        return source

    # ------------------------------------------------------------------
    # Cycle engine
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self._cycle += 1
        units = self._units
        active = self._active_inputs
        arrivals = self._in_air.pop(self._cycle, None)
        if arrivals:
            for idx, vc, flit in arrivals:
                unit = units[idx]
                unit.vcs[vc].fifo.append(flit)
                unit.busy |= 1 << vc
                active.add(idx)
        # All flits that move this cycle arrive together ``_hop_cycles``
        # later, in one shared bucket.
        bucket: List[Tuple[int, int, Flit]] = []
        self._forward_flits(bucket)
        self._drain_sources(bucket)
        if bucket:
            self._in_air[self._cycle + self._hop_cycles] = bucket
        if self._active_flits > 0 or self._in_air:
            self.sim.after(self._cycle_ps, self._tick)
        else:
            self._running = False

    def _route(self, router: int, flit: Flit) -> tuple:
        """The route of a head flit at ``router``.  It depends only on the
        router, the packet and the clock, so a head is routed in the
        forward pass just before it first tries to move."""
        packet, _, _, final = flit
        if router == final:
            if isinstance(packet.dst, int):
                return None, router
            return None, self.topo.attachment_at(str(packet.dst), router).eject
        nbr, ch = self.routing.next_hop(self.topo, packet, router, final, self.sim.now)
        return ch, self._input_index[(nbr, ch)], self._credits[ch]

    # -- switch traversal --------------------------------------------------
    def _forward_flits(self, bucket: List[Tuple[int, int, Flit]]) -> None:
        # ``width`` flits per output channel per cycle (a width-w channel
        # aggregates w physical links); visit active inputs in registration
        # order and their busy VCs in VC order (deterministic).
        used_outputs: Dict[Channel, int] = {}
        units = self._units
        active = self._active_inputs
        for idx in sorted(active):
            unit = units[idx]
            vcs = unit.vcs
            in_credits = unit.credits
            busy = unit.busy
            pending = busy
            while pending:
                low = pending & -pending
                pending ^= low
                in_vc = low.bit_length() - 1
                vc_state = vcs[in_vc]
                fifo = vc_state.fifo
                flit = fifo[0]
                route = vc_state.route
                if route is None:
                    if not flit[1]:
                        raise SimulationError("non-head flit awaiting route")
                    route = vc_state.route = self._route(unit.router, flit)
                out_channel = route[0]
                if out_channel is None:
                    fifo.popleft()
                    if not fifo:
                        busy ^= low
                    in_credits[in_vc] += 1
                    self._active_flits -= 1
                    if flit[2]:
                        self._sink(flit[0], route[1])
                        vc_state.route = None
                    continue
                used = used_outputs.get(out_channel, 0)
                if used >= out_channel.width:
                    continue
                out_vc = vc_state.out_vc
                if out_vc is None:
                    out_vc = self._allocate_vc(out_channel, flit[0])
                    if out_vc is None:
                        continue  # stall: no free VC downstream
                    vc_state.out_vc = out_vc
                out_credits = route[2]
                if out_credits[out_vc] <= 0:
                    continue  # stall: no buffer space downstream
                # Move the flit.
                fifo.popleft()
                if not fifo:
                    busy ^= low
                out_credits[out_vc] -= 1
                in_credits[in_vc] += 1
                used_outputs[out_channel] = used + 1
                out_channel.stats.bytes += FLIT_BYTES
                bucket.append((route[1], out_vc, flit))
                if flit[1]:
                    out_channel.stats.packets += 1
                    flit[0].hops += 1
                if flit[2]:
                    self._vc_owner[out_channel][out_vc] = None
                    vc_state.route = None
                    vc_state.out_vc = None
            unit.busy = busy
            if not busy:
                active.discard(idx)

    def _allocate_vc(self, channel: Channel, packet: Packet) -> Optional[int]:
        per_class = self.cfg.vcs_per_class
        base = 0 if packet.message_class is MessageClass.REQUEST else per_class
        owners = self._vc_owner[channel]
        credits = self._credits[channel]
        for vc in range(base, base + per_class):
            if owners[vc] is None and credits[vc] > 0:
                owners[vc] = packet
                return vc
        return None

    # -- injection ---------------------------------------------------------
    def _drain_sources(self, bucket: List[Tuple[int, int, Flit]]) -> None:
        # Up to ``width`` flits per source per cycle, subject to downstream
        # credit on the head flit's allocated VC.
        sources = self._source_list
        waiting = self._waiting
        for index in sorted(waiting):
            source = sources[index]
            queue = source.queue
            channel = source.channel
            credits = source.credits
            for _ in range(channel.width):
                if not queue:
                    break
                flit = queue[0]
                vc = source.vc
                if vc is None:
                    if not flit[1]:
                        break
                    vc = self._allocate_vc(channel, flit[0])
                    if vc is None:
                        break
                    source.vc = vc
                if credits[vc] <= 0:
                    break
                queue.popleft()
                credits[vc] -= 1
                channel.stats.bytes += FLIT_BYTES
                bucket.append((source.input_idx, vc, flit))
                if flit[1]:
                    channel.stats.packets += 1
                    flit[0].hops += 1
                if flit[2]:
                    self._vc_owner[channel][vc] = None
                    source.vc = None
            if not queue:
                waiting.discard(index)

    # -- delivery ----------------------------------------------------------
    def _sink(self, packet: Packet, target) -> None:
        """Hand a packet whose tail reached its destination router to the
        router's handler (``target`` the router) or eject it to its
        terminal (``target`` the eject channel)."""
        if isinstance(target, Channel):
            handler = self._terminal_handlers.get(str(packet.dst))
            target.stats.bytes += packet.size_bytes
        else:
            handler = self._router_handlers.get(target)
        if handler is None:
            raise SimulationError(f"no handler for the destination of {packet}")
        self._finish(packet, handler)

    #: Delivery bookkeeping and the traffic matrix are the packet network's.
    _finish = MemoryNetwork._finish
    traffic_matrix = MemoryNetwork.traffic_matrix
