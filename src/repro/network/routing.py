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
        that pays off on imbalanced traffic like CG.S (Fig. 15).  Each hop
        costs its queue plus the fixed serialization and hop latency that
        :meth:`~Topology.costed_dag` folds into one constant.

        ``memo`` maps routers to their cost toward ``dst_router``.  The
        candidates of one decision share ``dst_router``, ``size_bytes`` and
        ``now_ps``, so they pass one memo and each router is costed once.
        """
        if memo is None:
            memo = {dst_router: 0}
        cost = memo.get(start)
        if cost is not None:
            return cost
        for router, hops in topo.costed_dag(
            start, dst_router, size_bytes, self.hop_latency_ps
        ):
            if router in memo:
                continue
            best = -1
            for nbr, ch, fixed_ps in hops:
                busy = ch.busy_until
                cost = (busy - now_ps if busy > now_ps else 0) + fixed_ps + memo[nbr]
                if best < 0 or cost < best:
                    best = cost
            memo[router] = best
        return memo[start]

    def select_injection(
        self, topo: Topology, packet: Packet, dst_router: int, now_ps: int
    ) -> TerminalAttachment:
        # Bias toward the minimal path: queue estimates are stale by the
        # time the packet reaches the later hops, so a non-minimal route
        # must promise more than its extra hops' worth of savings (the
        # standard UGAL minimal-preference threshold).  Charging every hop,
        # not just the extra ones, adds the same constant to every
        # reachable candidate, so the choice is the same.
        size = packet.size_bytes
        dist = topo.dist
        hop_ps = self.hop_latency_ps
        memo = {dst_router: 0}
        best = best_cost = best_router = None
        for att in topo.attachments(str(packet.src)):
            router = att.router
            d = dist[router][dst_router]
            if d >= UNREACHABLE:
                # e.g. sFBFLY: a non-matching-slice local HMC has no path to
                # the destination (intra-cluster channels were removed).
                cost = _UNREACHABLE_COST
            else:
                inject = att.inject
                busy = inject.busy_until
                cost = (
                    (busy - now_ps if busy > now_ps else 0)
                    + inject.serialization_ps(size)
                    + self._path_cost(topo, router, dst_router, size, now_ps, memo)
                    + d * hop_ps
                )
            if best is None or cost < best_cost or (
                cost == best_cost and router < best_router
            ):
                best, best_cost, best_router = att, cost, router
        return best

    def select_ejection(
        self, topo: Topology, packet: Packet, cur_router: int, now_ps: int
    ) -> TerminalAttachment:
        """Responses also steer by load: any of the destination terminal's
        attachment routers is a valid exit, so pick the least-cost one
        instead of blindly taking the hop-count-minimal channel."""
        size = packet.size_bytes
        row = topo.dist[cur_router]
        best = best_cost = best_router = None
        for att in topo.attachments(str(packet.dst)):
            router = att.router
            if row[router] >= UNREACHABLE:
                cost = _UNREACHABLE_COST
            else:
                busy = att.eject.busy_until
                cost = self._path_cost(topo, cur_router, router, size, now_ps) + (
                    busy - now_ps if busy > now_ps else 0
                )
            if best is None or cost < best_cost or (
                cost == best_cost and router < best_router
            ):
                best, best_cost, best_router = att, cost, router
        return best

    def next_hop(
        self, topo: Topology, packet: Packet, cur: int, dst: int, now_ps: int
    ) -> Tuple[int, Channel]:
        hops = topo.minimal_next_hops(cur, dst)
        if len(hops) == 1:
            return hops[0]
        size = packet.size_bytes
        memo = {dst: 0}
        best = best_cost = None
        for hop in hops:
            nbr, ch = hop
            busy = ch.busy_until
            cost = (busy - now_ps if busy > now_ps else 0) + self._path_cost(
                topo, nbr, dst, size, now_ps, memo
            )
            if best is None or cost < best_cost or (
                cost == best_cost and nbr < best[0]
            ):
                best, best_cost = hop, cost
        return best


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
