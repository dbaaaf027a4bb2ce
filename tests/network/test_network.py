"""Integration tests for the MemoryNetwork fabric."""

import pytest

from repro.config import NetworkConfig, SystemConfig
from repro.errors import SimulationError
from repro.network.network import MemoryNetwork
from repro.network.packet import Packet, PacketKind
from repro.network.topologies import build_topology
from repro.sim.engine import Simulator


def make_net(topo=None, routing="min"):
    sim = Simulator()
    topo = topo or build_topology("sfbfly", SystemConfig(num_gpus=4))
    net = MemoryNetwork(sim, topo, NetworkConfig(), routing=routing)
    return sim, net


class TestDelivery:
    def test_request_reaches_destination_router(self):
        sim, net = make_net()
        got = []
        net.set_router_handler(13, got.append)
        packet = Packet(PacketKind.READ_REQ, "gpu0", 13, 16)
        net.send(packet)
        sim.run()
        assert got == [packet]
        assert sim.now > 0

    def test_local_router_is_one_hop(self):
        sim, net = make_net()
        got = []
        net.set_router_handler(2, got.append)
        net.send(Packet(PacketKind.READ_REQ, "gpu0", 2, 16))
        sim.run()
        assert got[0].hops == 1

    def test_remote_router_is_two_hops(self):
        sim, net = make_net()
        got = []
        net.set_router_handler(13, got.append)
        net.send(Packet(PacketKind.READ_REQ, "gpu0", 13, 16))
        sim.run()
        assert got[0].hops == 2  # inject + slice channel

    def test_response_reaches_terminal(self):
        sim, net = make_net()
        got = []
        net.set_terminal_handler("gpu0", got.append)
        net.send(Packet(PacketKind.READ_RESP, 13, "gpu0", 144))
        sim.run()
        assert len(got) == 1

    def test_terminal_to_terminal(self):
        sim, net = make_net()
        got = []
        net.set_terminal_handler("gpu2", got.append)
        net.send(Packet(PacketKind.WRITE_REQ, "gpu0", "gpu2", 1024))
        sim.run()
        assert len(got) == 1

    def test_missing_handler_raises(self):
        sim, net = make_net()
        net.send(Packet(PacketKind.READ_REQ, "gpu0", 13, 16))
        with pytest.raises(SimulationError):
            sim.run()

    def test_no_packet_loss_under_load(self):
        sim, net = make_net()
        delivered = []
        for r in range(16):
            net.set_router_handler(r, delivered.append)
        for i in range(200):
            net.send(Packet(PacketKind.READ_REQ, f"gpu{i % 4}", (i * 7) % 16, 144))
        sim.run()
        assert len(delivered) == 200
        assert net.stats.delivered == 200
        assert net.stats.injected == 200


class TestLatency:
    def test_remote_latency_exceeds_local(self):
        sim, net = make_net()
        times = {}
        net.set_router_handler(2, lambda p: times.setdefault("local", sim.now))
        net.set_router_handler(14, lambda p: times.setdefault("remote", sim.now))
        net.send(Packet(PacketKind.READ_REQ, "gpu0", 2, 16))
        net.send(Packet(PacketKind.READ_REQ, "gpu0", 14, 16))
        sim.run()
        assert times["remote"] > times["local"]

    def test_serialization_scales_with_size(self):
        sim1, net1 = make_net()
        done1 = []
        net1.set_router_handler(13, lambda p: done1.append(sim1.now))
        net1.send(Packet(PacketKind.READ_REQ, "gpu0", 13, 16))
        sim1.run()

        sim2, net2 = make_net()
        done2 = []
        net2.set_router_handler(13, lambda p: done2.append(sim2.now))
        net2.send(Packet(PacketKind.WRITE_REQ, "gpu0", 13, 16 + 4096))
        sim2.run()
        assert done2[0] > done1[0]

    def test_stats_track_latency_and_hops(self):
        sim, net = make_net()
        net.set_router_handler(13, lambda p: None)
        net.send(Packet(PacketKind.READ_REQ, "gpu0", 13, 16))
        sim.run()
        assert net.stats.avg_latency_ps > 0
        assert net.stats.avg_hops == 2

    def test_traffic_matrix_records_requests(self):
        sim, net = make_net()
        net.set_router_handler(13, lambda p: None)
        net.send(Packet(PacketKind.READ_REQ, "gpu0", 13, 16))
        sim.run()
        matrix = net.traffic_matrix(["gpu0", "gpu1"])
        assert matrix[0][13] == 16
        assert sum(matrix[1]) == 0


class TestPassthrough:
    def _overlay_net(self):
        sim = Simulator()
        topo = build_topology("overlay", SystemConfig(num_gpus=3), include_cpu=True)
        net = MemoryNetwork(sim, topo, NetworkConfig())
        return sim, net, topo

    def test_cpu_packet_rides_chain(self):
        sim, net, topo = self._overlay_net()
        got = []
        # Destination: last GPU cluster's slice-0 HMC (end of chain 0).
        dst = 2 * 4 + 0
        net.set_router_handler(dst, got.append)
        net.send(Packet(PacketKind.READ_REQ, "cpu", dst, 16, pass_through=True))
        sim.run()
        assert len(got) == 1
        # Chain traffic used pass-through channels.
        pt_bytes = sum(
            ch.stats.bytes for ch in topo.channels if ch.name.startswith("pt:")
        )
        assert pt_bytes > 0

    def test_passthrough_is_faster_per_hop_than_network(self):
        # Compare CPU delivery time with and without the pass-through flag.
        sim1, net1, _ = self._overlay_net()
        t1 = []
        net1.set_router_handler(8, lambda p: t1.append(sim1.now))
        net1.send(Packet(PacketKind.READ_REQ, "cpu", 8, 16, pass_through=True))
        sim1.run()

        sim2, net2, _ = self._overlay_net()
        t2 = []
        net2.set_router_handler(8, lambda p: t2.append(sim2.now))
        net2.send(Packet(PacketKind.READ_REQ, "cpu", 8, 16, pass_through=False))
        sim2.run()
        assert t1[0] <= t2[0]

    def test_gpu_packets_never_use_chain(self):
        sim, net, topo = self._overlay_net()
        net.set_router_handler(12, lambda p: None)  # cpu cluster router
        net.send(Packet(PacketKind.READ_REQ, "gpu0", 12, 16))
        sim.run()
        pt_bytes = sum(
            ch.stats.bytes for ch in topo.channels if ch.name.startswith("pt:")
        )
        assert pt_bytes == 0

    def test_congested_chain_falls_back_to_network(self):
        sim, net, topo = self._overlay_net()
        chain = topo.passthrough_chains["cpu"][0]
        for ch in chain.forward:
            ch.transmit(400_000, now_ps=0)  # ~20 us backlog per hop
        got = []
        net.set_router_handler(8, got.append)
        net.send(Packet(PacketKind.READ_REQ, "cpu", 8, 16, pass_through=True))
        sim.run()
        assert len(got) == 1
        # Delivered well before the chain backlog would have allowed.
        assert sim.now < 1_000_000
