"""Oracle test for UGAL's single-pass path costing.

:class:`UGALRouting` costs the candidates of one routing decision in one
pass over the topology's memoized minimal-path DAG, sharing a per-router
cost memo between the candidates.  The reference here is the recursive
cost it replaced — the best minimal path found by recursing over
``minimal_next_hops`` with a fresh memo per call — and a reference policy
built on it.  On every registered topology, under seeded random channel
loads, the two must agree on every path cost and every choice.

Every registered topology attaches each terminal in ascending router
order, where a tie on cost breaks the same way with or without the
``att.router`` tie-break.  A probe terminal attached at every router in
descending order makes the tie-break decide.
"""

from __future__ import annotations

import random

import pytest

from repro.config import NetworkConfig, SystemConfig
from repro.network.packet import Packet, PacketKind
from repro.network.routing import UGALRouting
from repro.network.topologies import BUILDERS, build_topology

HOP_PS = NetworkConfig().hop_latency_ps
#: A request header and a read response (header plus a 64 B line).
SIZES = (16, 80)
LOAD_DRAWS = 3


def _ref_path_cost(policy, topo, start, dst_router, size_bytes, now_ps):
    memo = {dst_router: 0}

    def best(cur):
        cached = memo.get(cur)
        if cached is not None:
            return cached
        cost = min(
            ch.queue_delay_ps(now_ps)
            + ch.serialization_ps(size_bytes)
            + policy.hop_latency_ps
            + best(nbr)
            for nbr, ch in topo.minimal_next_hops(cur, dst_router)
        )
        memo[cur] = cost
        return cost

    return best(start)


class ReferenceUGAL(UGALRouting):
    """UGAL's choices, each candidate costed on its own by the recursion."""

    def _candidate_cost(self, topo, att, dst_router, size_bytes, now_ps):
        if not topo.reachable(att.router, dst_router):
            return 1 << 60
        cost = att.inject.queue_delay_ps(now_ps)
        cost += att.inject.serialization_ps(size_bytes)
        cost += _ref_path_cost(self, topo, att.router, dst_router, size_bytes, now_ps)
        cost += topo.distance(att.router, dst_router) * self.hop_latency_ps
        return cost

    def select_injection(self, topo, packet, dst_router, now_ps):
        return min(
            topo.attachments(str(packet.src)),
            key=lambda att: (
                self._candidate_cost(topo, att, dst_router, packet.size_bytes, now_ps),
                att.router,
            ),
        )

    def select_ejection(self, topo, packet, cur_router, now_ps):
        def cost(att):
            if not topo.reachable(cur_router, att.router):
                return (1 << 60, att.router)
            return (
                _ref_path_cost(
                    self, topo, cur_router, att.router, packet.size_bytes, now_ps
                )
                + att.eject.queue_delay_ps(now_ps),
                att.router,
            )

        return min(topo.attachments(str(packet.dst)), key=cost)

    def next_hop(self, topo, packet, cur, dst, now_ps):
        return min(
            topo.minimal_next_hops(cur, dst),
            key=lambda h: (
                h[1].queue_delay_ps(now_ps)
                + _ref_path_cost(self, topo, h[0], dst, packet.size_bytes, now_ps),
                h[0],
            ),
        )


def _topology(name):
    topo = build_topology(name, SystemConfig(num_gpus=4), include_cpu=True)
    for router in reversed(range(topo.num_routers)):
        topo.attach_terminal("probe", router)
    return topo


def _load(topo, rng):
    """Seeded ``busy_until`` horizons; a third of the channels idle, so
    candidates tie and the tie-breaks decide."""
    now_ps = rng.randrange(0, 50_000)
    for ch in topo.all_channels():
        ch.busy_until = 0 if rng.random() < 1 / 3 else rng.randrange(now_ps + 40_000)
    return now_ps


def _reachable_pairs(topo):
    n = topo.num_routers
    return [(a, b) for a in range(n) for b in range(n) if topo.reachable(a, b)]


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_path_cost_matches_recursive_reference(name):
    topo = _topology(name)
    policy = UGALRouting(HOP_PS)
    rng = random.Random(f"cost:{name}")
    pairs = _reachable_pairs(topo)
    for _ in range(LOAD_DRAWS):
        now_ps = _load(topo, rng)
        for size in SIZES:
            for start, dst in pairs:
                assert policy._path_cost(
                    topo, start, dst, size, now_ps
                ) == _ref_path_cost(policy, topo, start, dst, size, now_ps), (
                    start, dst, size
                )


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_decisions_match_reference_policy(name):
    topo = _topology(name)
    policy = UGALRouting(HOP_PS)
    ref = ReferenceUGAL(HOP_PS)
    rng = random.Random(f"decide:{name}")
    terminals = sorted(topo.terminals)
    pairs = _reachable_pairs(topo)
    for _ in range(LOAD_DRAWS):
        now_ps = _load(topo, rng)
        for size in SIZES:
            for terminal in terminals:
                for r in range(topo.num_routers):
                    request = Packet(PacketKind.READ_REQ, terminal, r, size, pid=r)
                    assert policy.select_injection(
                        topo, request, r, now_ps
                    ) is ref.select_injection(topo, request, r, now_ps), (terminal, r)
                    response = Packet(PacketKind.READ_RESP, r, terminal, size, pid=r)
                    assert policy.select_ejection(
                        topo, response, r, now_ps
                    ) is ref.select_ejection(topo, response, r, now_ps), (terminal, r)
            packet = Packet(PacketKind.READ_REQ, "probe", 0, size, pid=0)
            for cur, dst in pairs:
                if cur != dst:
                    assert policy.next_hop(
                        topo, packet, cur, dst, now_ps
                    ) is ref.next_hop(topo, packet, cur, dst, now_ps), (cur, dst)
