"""Tests for the flit-level network (wormhole, VCs, credits)."""

import pytest

from repro.config import NetworkConfig, SystemConfig
from repro.network.flitnet import FLIT_BYTES, FlitNetwork
from repro.network.packet import Packet, PacketKind
from repro.network.topologies import build_topology
from repro.sim.engine import Simulator
from repro.system.configs import TABLE_III
from repro.system.run import run_workload
from repro.workloads import get_workload
from tests.conftest import tiny_system_config


def make_net(topo=None, cfg=None):
    sim = Simulator()
    topo = topo or build_topology("sfbfly", SystemConfig(num_gpus=4))
    net = FlitNetwork(sim, topo, cfg or NetworkConfig())
    return sim, net


class TestDelivery:
    def test_request_reaches_router(self):
        sim, net = make_net()
        got = []
        net.set_router_handler(13, got.append)
        net.send(Packet(PacketKind.READ_REQ, "gpu0", 13, 16))
        sim.run()
        assert len(got) == 1

    def test_response_reaches_terminal(self):
        sim, net = make_net()
        got = []
        net.set_terminal_handler("gpu2", got.append)
        net.send(Packet(PacketKind.READ_RESP, 13, "gpu2", 144))
        sim.run()
        assert len(got) == 1

    def test_no_loss_under_heavy_load(self):
        sim, net = make_net()
        for r in range(16):
            net.set_router_handler(r, lambda p: None)
        for i in range(300):
            net.send(Packet(PacketKind.WRITE_REQ, f"gpu{i % 4}", (i * 7) % 16, 144))
        sim.run()
        assert net.stats.delivered == 300

    def test_multi_flit_packet_takes_longer(self):
        t = {}
        for label, size in (("small", FLIT_BYTES), ("big", FLIT_BYTES * 32)):
            sim, net = make_net()
            done = []
            net.set_router_handler(13, lambda p: done.append(sim.now))
            kind = PacketKind.READ_REQ if size == FLIT_BYTES else PacketKind.WRITE_REQ
            net.send(Packet(kind, "gpu0", 13, size))
            sim.run()
            t[label] = done[0]
        assert t["big"] > t["small"]

    def test_mixed_request_response_classes(self):
        sim, net = make_net()
        delivered = []
        for r in range(16):
            net.set_router_handler(r, delivered.append)
        for g in range(4):
            net.set_terminal_handler(f"gpu{g}", delivered.append)
        for i in range(40):
            net.send(Packet(PacketKind.READ_REQ, f"gpu{i % 4}", (3 * i) % 16, 16))
            net.send(Packet(PacketKind.READ_RESP, (5 * i) % 16, f"gpu{i % 4}", 144))
        sim.run()
        assert len(delivered) == 80


class TestBackpressure:
    def test_latency_grows_with_congestion(self):
        def avg_latency(n_packets):
            sim, net = make_net()
            net.set_router_handler(12, lambda p: None)
            for i in range(n_packets):
                # Everyone hammers router 12 (hotspot).
                net.send(Packet(PacketKind.WRITE_REQ, f"gpu{i % 4}", 12, 144))
            sim.run()
            return net.stats.avg_latency_ps

        assert avg_latency(100) > 1.5 * avg_latency(4)

    def test_buffers_never_overflow(self):
        sim, net = make_net()
        net.set_router_handler(12, lambda p: None)
        for i in range(200):
            net.send(Packet(PacketKind.WRITE_REQ, f"gpu{i % 4}", 12, 144))
        sim.run()
        for vcs in net._inputs.values():
            for vc in vcs:
                assert len(vc.fifo) <= vc.max_flits

    def test_credits_restored_after_drain(self):
        sim, net = make_net()
        net.set_router_handler(13, lambda p: None)
        for i in range(50):
            net.send(Packet(PacketKind.WRITE_REQ, "gpu0", 13, 144))
        sim.run()
        # All credits must be back at their initial value.
        for ch, credits in net._credits.items():
            assert credits == [net._vc_flits] * net._num_vcs, ch.name


class TestAgainstPacketModel:
    def test_same_hop_counts_at_low_load(self):
        from repro.network.network import MemoryNetwork

        results = {}
        for cls in (MemoryNetwork, FlitNetwork):
            sim = Simulator()
            topo = build_topology("sfbfly", SystemConfig(num_gpus=4))
            net = cls(sim, topo, NetworkConfig())
            net.set_router_handler(13, lambda p: None)
            net.send(Packet(PacketKind.READ_REQ, "gpu0", 13, 16))
            sim.run()
            results[cls.__name__] = net.stats.avg_hops
        assert results["MemoryNetwork"] == results["FlitNetwork"]

    def test_full_system_run_with_flit_model(self):
        cfg = tiny_system_config()
        import dataclasses

        cfg = dataclasses.replace(cfg, network_model="flit")
        r = run_workload(TABLE_III["GMN"], get_workload("KMN", 0.1), cfg=cfg)
        assert r.kernel_ps > 0
        assert r.net_delivered > 0

    def test_unknown_model_rejected(self):
        import dataclasses

        from repro.errors import ConfigError

        # The config itself rejects unknown tiers, before any system is
        # built (the message lists the valid ones).
        with pytest.raises(ConfigError, match="analytic"):
            dataclasses.replace(tiny_system_config(), network_model="photonic")

    def test_smesh_also_works(self):
        sim = Simulator()
        topo = build_topology("smesh", SystemConfig(num_gpus=4))
        net = FlitNetwork(sim, topo, NetworkConfig())
        done = []
        net.set_router_handler(12, lambda p: done.append(sim.now))
        net.send(Packet(PacketKind.READ_REQ, "gpu0", 12, 16))
        sim.run()
        assert done
