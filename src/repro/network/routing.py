"""Routing policies: minimal (MIN) and load-balanced adaptive (UGAL).

Routing decisions happen at two points:

- **injection**: which of the terminal's attachment routers receives the
  packet.  With distributed terminals this is where path diversity lives —
  e.g. in dFBFLY a GPU can reach a remote HMC in one hop through the local
  HMC of the matching slice, or in two hops through any other local HMC.
- **per hop**: which minimal next-hop channel to take when several exist.

MIN is congestion-oblivious: it always injects at a minimum-distance
attachment and round-robins over equal-distance channels.  UGAL weighs
queue occupancy against extra hops, so it will take a non-minimal entry
point when the minimal one is congested (Section VI-B1 / Fig. 15).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..errors import RoutingError
from .channel import Channel
from .packet import Packet
from .topology import UNREACHABLE, TerminalAttachment, Topology

#: The cost of a candidate that cannot reach its destination at all.
_UNREACHABLE_COST = 1 << 60


class MinimalRouting:
    """Deterministic minimal routing with oblivious load spreading.

    Injection and ejection choices are pure functions of the topology (ties
    break on attachment order / first minimum), so the policy asks the
    topology's memoized :meth:`~Topology.nearest_attachment` for both.
    """

    name = "min"

    def select_injection(
        self, topo: Topology, packet: Packet, dst_router: int, now_ps: int
    ) -> TerminalAttachment:
        return topo.nearest_attachment(str(packet.src), dst_router)

    def select_ejection(
        self, topo: Topology, packet: Packet, cur_router: int, now_ps: int
    ) -> TerminalAttachment:
        return topo.nearest_attachment(str(packet.dst), cur_router)

    def next_hop(
        self, topo: Topology, packet: Packet, cur: int, dst: int, now_ps: int
    ) -> Tuple[int, Channel]:
        hops = topo.minimal_next_hops(cur, dst)
        return hops[packet.pid % len(hops)]


class UGALRouting(MinimalRouting):
    """UGAL-style adaptive routing.

    At injection, every attachment is a candidate; the estimated delay of a
    candidate is its injection channel's queue and serialization plus the
    cost of the best minimal path from its router, which counts every
    channel's queue.  Per hop, the minimal channel with the least queue
    plus onward path cost is chosen.
    """

    name = "ugal"

    def __init__(self, hop_latency_ps: int) -> None:
        self.hop_latency_ps = hop_latency_ps

    def _path_cost(
        self,
        topo: Topology,
        start: int,
        dst_router: int,
        size_bytes: int,
        now_ps: int,
        memo: Optional[Dict[int, int]] = None,
    ) -> int:
        """Estimated delay of the best minimal path from ``start`` to
        ``dst_router``, counting every channel's current queue.

        Computed exactly over the minimal-path DAG (not greedily), so a jam
        on a later hop is visible from the injection point — that is what
        lets UGAL steer around a congested destination channel, the effect
        that pays off on imbalanced traffic like CG.S (Fig. 15).

        ``memo`` maps routers to their cost toward ``dst_router``.  The
        candidates of one decision share ``dst_router``, ``size_bytes`` and
        ``now_ps``, so they pass one memo and each router is costed once.
        """
        if memo is None:
            memo = {dst_router: 0}
        cost = memo.get(start)
        if cost is not None:
            return cost
        hop_ps = self.hop_latency_ps
        for router, hops in topo.minimal_dag(start, dst_router):
            if router in memo:
                continue
            best = -1
            for nbr, ch in hops:
                cost = (
                    ch.wait_and_serialization_ps(now_ps, size_bytes)
                    + hop_ps
                    + memo[nbr]
                )
                if best < 0 or cost < best:
                    best = cost
            memo[router] = best
        return memo[start]

    def select_injection(
        self, topo: Topology, packet: Packet, dst_router: int, now_ps: int
    ) -> TerminalAttachment:
        size = packet.size_bytes
        dist = topo.dist
        memo = {dst_router: 0}

        def cost(att: TerminalAttachment) -> Tuple[int, int]:
            d = dist[att.router][dst_router]
            if d >= UNREACHABLE:
                # e.g. sFBFLY: a non-matching-slice local HMC has no path to
                # the destination (intra-cluster channels were removed).
                return (_UNREACHABLE_COST, att.router)
            # Bias toward the minimal path: queue estimates are stale by the
            # time the packet reaches the later hops, so a non-minimal route
            # must promise more than its extra hops' worth of savings (the
            # standard UGAL minimal-preference threshold).  Charging every
            # hop, not just the extra ones, adds the same constant to every
            # reachable candidate, so the choice is the same.
            return (
                att.inject.wait_and_serialization_ps(now_ps, size)
                + self._path_cost(topo, att.router, dst_router, size, now_ps, memo)
                + d * self.hop_latency_ps,
                att.router,
            )

        return min(topo.attachments(str(packet.src)), key=cost)

    def select_ejection(
        self, topo: Topology, packet: Packet, cur_router: int, now_ps: int
    ) -> TerminalAttachment:
        """Responses also steer by load: any of the destination terminal's
        attachment routers is a valid exit, so pick the least-cost one
        instead of blindly taking the hop-count-minimal channel."""
        size = packet.size_bytes
        row = topo.dist[cur_router]

        def cost(att: TerminalAttachment) -> Tuple[int, int]:
            if row[att.router] >= UNREACHABLE:
                return (_UNREACHABLE_COST, att.router)
            return (
                self._path_cost(topo, cur_router, att.router, size, now_ps)
                + att.eject.queue_delay_ps(now_ps),
                att.router,
            )

        return min(topo.attachments(str(packet.dst)), key=cost)

    def next_hop(
        self, topo: Topology, packet: Packet, cur: int, dst: int, now_ps: int
    ) -> Tuple[int, Channel]:
        hops = topo.minimal_next_hops(cur, dst)
        if len(hops) == 1:
            return hops[0]
        size = packet.size_bytes
        memo = {dst: 0}
        return min(
            hops,
            key=lambda h: (
                h[1].queue_delay_ps(now_ps)
                + self._path_cost(topo, h[0], dst, size, now_ps, memo),
                h[0],
            ),
        )


ROUTING_POLICIES = {
    "min": MinimalRouting,
    "ugal": UGALRouting,
}


def make_routing(name: str, hop_latency_ps: int):
    """Instantiate a routing policy by name.  ``hop_latency_ps`` (the
    network's ``NetworkConfig.hop_latency_ps``) is the per-hop cost UGAL
    weighs against queueing."""
    try:
        cls = ROUTING_POLICIES[name]
    except KeyError:
        raise RoutingError(
            f"unknown routing policy {name!r}; available: {sorted(ROUTING_POLICIES)}"
        ) from None
    if cls is UGALRouting:
        return cls(hop_latency_ps)
    return cls()
