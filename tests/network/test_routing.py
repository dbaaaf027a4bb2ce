"""Tests for routing policies (MIN and UGAL)."""

import pytest

from repro.config import NetworkConfig, SystemConfig
from repro.errors import RoutingError
from repro.network.packet import Packet, PacketKind
from repro.network.routing import MinimalRouting, UGALRouting, make_routing
from repro.network.topologies import build_topology

HOP_PS = NetworkConfig().hop_latency_ps


def _packet(src="gpu0", dst=12, size=16, pid=0):
    return Packet(
        kind=PacketKind.READ_REQ, src=src, dst=dst, size_bytes=size, pid=pid
    )


class TestMakeRouting:
    def test_make_min(self):
        assert isinstance(make_routing("min", HOP_PS), MinimalRouting)

    def test_make_ugal(self):
        policy = make_routing("ugal", hop_latency_ps=5000)
        assert isinstance(policy, UGALRouting)
        assert policy.hop_latency_ps == 5000

    def test_unknown_raises(self):
        with pytest.raises(RoutingError):
            make_routing("valiant", HOP_PS)


class TestMinimalRouting:
    def test_injects_at_matching_slice(self):
        topo = build_topology("sfbfly", SystemConfig(num_gpus=4))
        policy = MinimalRouting()
        # Destination router 13 = cluster 3, slice 1; gpu0's slice-1 HMC is
        # router 1, one hop away.
        att = policy.select_injection(topo, _packet(dst=13), 13, now_ps=0)
        assert att.router == 1

    def test_local_destination_injects_directly(self):
        topo = build_topology("sfbfly", SystemConfig(num_gpus=4))
        policy = MinimalRouting()
        att = policy.select_injection(topo, _packet(dst=2), 2, now_ps=0)
        assert att.router == 2

    def test_next_hop_reduces_distance(self):
        topo = build_topology("dfbfly", SystemConfig(num_gpus=4))
        policy = MinimalRouting()
        packet = _packet(dst=13)
        nbr, _ = policy.next_hop(topo, packet, 1, 13, now_ps=0)
        assert topo.distance(nbr, 13) == topo.distance(1, 13) - 1

    def test_round_robin_spreads_by_packet_id(self):
        topo = build_topology("dfbfly", SystemConfig(num_gpus=4))
        policy = MinimalRouting()
        # Router 0 -> router 3 (same cluster): several minimal paths exist
        # only when distance > 1; use 0 -> 15 (diagonal, distance 2).
        chosen = {
            policy.next_hop(topo, _packet(dst=15, pid=pid), 0, 15, now_ps=0)[0]
            for pid in range(8)
        }
        assert len(chosen) >= 2  # different pids take different hops

    def test_ejection_picks_nearest_attachment(self):
        topo = build_topology("sfbfly", SystemConfig(num_gpus=4))
        policy = MinimalRouting()
        packet = _packet(src=12, dst="gpu0")
        att = policy.select_ejection(topo, packet, 12, now_ps=0)
        assert att.router == 0  # gpu0's slice-0 HMC, one hop from router 12


class TestUGALRouting:
    def test_matches_minimal_when_idle(self):
        topo = build_topology("dfbfly", SystemConfig(num_gpus=4))
        ugal = UGALRouting(HOP_PS)
        att = ugal.select_injection(topo, _packet(dst=13), 13, now_ps=0)
        assert att.router == 1  # matching slice, like MIN

    def test_diverts_around_congested_channel(self):
        topo = build_topology("dfbfly", SystemConfig(num_gpus=4))
        ugal = UGALRouting(HOP_PS)
        # Saturate the direct slice channel router 1 -> router 13.
        for nbr, ch in topo.adj[1]:
            if nbr == 13:
                ch.transmit(200_000, now_ps=0)  # ~10 us backlog
        att = ugal.select_injection(topo, _packet(dst=13), 13, now_ps=0)
        assert att.router != 1  # takes a 2-hop path via another local HMC

    def test_skips_unreachable_attachments_in_sfbfly(self):
        topo = build_topology("sfbfly", SystemConfig(num_gpus=4))
        ugal = UGALRouting(HOP_PS)
        # Only the matching-slice attachment can reach the destination.
        att = ugal.select_injection(topo, _packet(dst=13), 13, now_ps=0)
        assert att.router == 1

    def test_path_cost_counts_queues_along_path(self):
        topo = build_topology("dfbfly", SystemConfig(num_gpus=4))
        ugal = UGALRouting(HOP_PS)
        # Router 1 reaches router 13 by one direct slice channel only.
        [(nbr, ch)] = topo.minimal_next_hops(1, 13)
        assert nbr == 13
        idle = ugal._path_cost(topo, 1, 13, 16, now_ps=0)
        assert idle == ch.serialization_ps(16) + HOP_PS
        ch.transmit(2_000, now_ps=0)
        # The only minimal path pays exactly the channel's new backlog.
        loaded = ugal._path_cost(topo, 1, 13, 16, now_ps=0)
        assert loaded == idle + ch.serialization_ps(2_000)

    def test_ejection_unreachable_guard(self):
        topo = build_topology("sfbfly", SystemConfig(num_gpus=4))
        ugal = UGALRouting(HOP_PS)
        packet = _packet(src=12, dst="gpu0")
        att = ugal.select_ejection(topo, packet, 12, now_ps=0)
        assert att.router == 0
