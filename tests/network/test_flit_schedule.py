"""The flit tier's schedule, pinned to committed counts.

Row identity shows that a run's results did not change; this test pins
what the flit engine did on the way: the events and the peak pending
events of the run, the packets delivered, their summed latency and hops,
and every memory-network channel's bytes and packets.  It covers two
full-system points (BP and KMN on GMN at the flit tier) and synthetic
hotspot traffic on the sliced and distributed topologies under minimal
and UGAL routing, the Fig. 15 configurations.

Regenerate ``tests/data/flit_schedule.json`` only on a commit whose flit
schedule is known good::

    PYTHONPATH=src python tests/network/test_flit_schedule.py
"""

from __future__ import annotations

import json
import sys
from functools import partial
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.network.flitnet import FlitNetwork
from repro.network.packet import PacketKind
from repro.network.traffic import PACKET_BYTES, OfferedLoad
from repro.sim.engine import Simulator
from repro.system.configs import get_spec
from repro.system.fabric.gmn import gpu_network_topology
from repro.system.run import run_workload_detailed
from repro.workloads.suite import get_workload

REFERENCE = Path(__file__).resolve().parent.parent / "data" / "flit_schedule.json"

FLIT = SystemConfig(network_model="flit")

#: Full-system points: (workload, scale) on GMN.
SYSTEM_POINTS = (("BP", 0.1), ("KMN", 0.1))

#: Synthetic points: (topology, routing) under :data:`HOTSPOT`.
TRAFFIC_POINTS = tuple(
    (topology, routing)
    for topology in ("sfbfly", "dfbfly", "ddfly")
    for routing in ("min", "ugal")
)

#: 30% of every GPU's packets target router 0, the rest are uniform; at
#: twice a GPU's injection bandwidth, flits stall on credits.
HOTSPOT = OfferedLoad(2.0, pattern="hotspot", packets_per_gpu=200)


def _stats(net, events: int, peak_pending: int, channels) -> dict:
    stats = net.stats
    return {
        "events": events,
        "peak_pending": peak_pending,
        "delivered": stats.delivered,
        "total_latency_ps": stats.total_latency_ps,
        "total_hops": stats.total_hops,
        "channels": {
            ch.name: [ch.stats.bytes, ch.stats.packets] for ch in channels
        },
    }


def measure_system(workload: str, scale: float) -> dict:
    result, system = run_workload_detailed(
        get_spec("GMN"), get_workload(workload, scale), FLIT
    )
    return _stats(
        system.network,
        result.events_executed,
        result.peak_pending_events,
        system.network_channels(),
    )


def measure_traffic(topology: str, routing: str) -> dict:
    """:data:`HOTSPOT` through a bare flit network, as a network-only run
    drives it; routers sink every packet."""
    spec = get_spec("GMN").with_(topology=topology, routing=routing)
    sim = Simulator()
    topo = gpu_network_topology(spec, FLIT)
    net = FlitNetwork(sim, topo, FLIT.network, routing=routing)
    for r in range(topo.num_routers):
        net.set_router_handler(r, lambda packet: None)
    for t, terminal, dst in HOTSPOT.schedule(topo.num_routers, FLIT):
        packet = net.packet(PacketKind.READ_REQ, terminal, dst, PACKET_BYTES)
        sim.at(t, partial(net.send, packet))
    sim.run()
    return _stats(net, sim.events_executed, sim.peak_pending_events, topo.all_channels())


def _system_key(workload: str, scale: float) -> str:
    return f"GMN/{workload}@{scale}"


def _traffic_key(topology: str, routing: str) -> str:
    return f"{topology}/{routing}/{HOTSPOT.name}"


def measure_all() -> dict:
    pins = {_system_key(*p): measure_system(*p) for p in SYSTEM_POINTS}
    pins.update({_traffic_key(*p): measure_traffic(*p) for p in TRAFFIC_POINTS})
    return pins


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


@pytest.mark.parametrize("point", SYSTEM_POINTS, ids=lambda p: _system_key(*p))
def test_system_point_matches_reference(point, reference):
    assert measure_system(*point) == reference[_system_key(*point)]


@pytest.mark.parametrize("point", TRAFFIC_POINTS, ids=lambda p: _traffic_key(*p))
def test_traffic_point_matches_reference(point, reference):
    measured = measure_traffic(*point)
    assert measured["delivered"] == HOTSPOT.packets_per_gpu * FLIT.num_gpus
    assert measured == reference[_traffic_key(*point)]


def test_reference_covers_every_point(reference):
    assert sorted(reference) == sorted(
        [_system_key(*p) for p in SYSTEM_POINTS]
        + [_traffic_key(*p) for p in TRAFFIC_POINTS]
    )


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(measure_all(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}", file=sys.stderr)
