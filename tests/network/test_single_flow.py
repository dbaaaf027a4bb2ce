"""Closed-form latency of one packet on an idle network, in both tiers.

One request from ``gpu0`` to a router ``d`` hops past its nearest
attachment on an idle sFBFLY must take exactly what the models say, with
every term computed from :class:`NetworkConfig` and the widths of the
channels it crosses:

- packet tier: SerDes, then serialization on the injection channel, then
  per router hop the hop latency (pipeline + SerDes) plus serialization
  on that channel, then the destination router's pipeline;
- flit tier: ``1 + d`` traversals of ``hop_latency_ps // router_cycle_ps``
  cycles each for the head flit (injection link included), then one cycle
  per further flit, since the destination router sinks one flit of a VC
  per cycle.
"""

from __future__ import annotations

import pytest

from repro.config import NetworkConfig, SystemConfig
from repro.network.flitnet import FLIT_BYTES, FlitNetwork
from repro.network.network import MemoryNetwork
from repro.network.packet import Packet, PacketKind
from repro.network.topologies import build_topology
from repro.sim.engine import Simulator
from repro.units import bytes_per_ps

CFG = NetworkConfig()


def _serialization_ps(size_bytes: int, width: int) -> int:
    return max(1, round(size_bytes / bytes_per_ps(CFG.channel_gbps * width)))


def _route(topo, hops: int):
    """The lowest-numbered router ``hops`` past gpu0's nearest attachment,
    with the channels a minimally routed request crosses to it."""
    dst = min(
        r for r in range(topo.num_routers) if topo.terminal_distance("gpu0", r) == hops
    )
    att = topo.nearest_attachment("gpu0", dst)
    channels = [att.inject]
    router = att.router
    while router != dst:
        (router, ch), = topo.minimal_next_hops(router, dst)
        channels.append(ch)
    return dst, channels


def _expected_ps(tier: str, size_bytes: int, channels) -> int:
    hops = len(channels) - 1
    if tier == "packet":
        inject, *links = channels
        return (
            CFG.serdes_ps
            + _serialization_ps(size_bytes, inject.width)
            + sum(
                CFG.hop_latency_ps + _serialization_ps(size_bytes, ch.width)
                for ch in links
            )
            + CFG.pipeline_stages * CFG.router_cycle_ps
        )
    flits = -(-size_bytes // FLIT_BYTES)
    hop_cycles = CFG.hop_latency_ps // CFG.router_cycle_ps
    return ((1 + hops) * hop_cycles + flits - 1) * CFG.router_cycle_ps


@pytest.mark.parametrize("size_bytes", [16, 144])
@pytest.mark.parametrize("hops", [0, 1])
@pytest.mark.parametrize("tier", ["packet", "flit"])
def test_single_flow_latency_is_closed_form(tier, hops, size_bytes):
    sim = Simulator()
    topo = build_topology("sfbfly", SystemConfig(num_gpus=4))
    net = (MemoryNetwork if tier == "packet" else FlitNetwork)(sim, topo, CFG)
    dst, channels = _route(topo, hops)
    assert len(channels) == 1 + hops
    arrived = []
    net.set_router_handler(dst, lambda packet: arrived.append(sim.now))
    kind = PacketKind.READ_REQ if size_bytes == 16 else PacketKind.WRITE_REQ
    net.send(Packet(kind, "gpu0", dst, size_bytes))
    sim.run()
    assert arrived == [_expected_ps(tier, size_bytes, channels)]
    assert net.stats.total_hops == 1 + hops
