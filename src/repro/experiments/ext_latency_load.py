"""Extension — latency-vs-load characterization of the memory networks.

The classic interconnection-network methodology ([46], Dally & Towles):
inject uniform-random read-request/response traffic from every GPU at a
controlled offered load (fraction of each GPU's injection bandwidth) and
measure average packet latency.  The saturation point of each topology is
the headroom behind the Fig. 16 application results: sFBFLY saturates last
among equal-channel sliced designs because it pairs the lowest hop count
with the highest bisection.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from ..config import NetworkConfig
from ..network.network import MemoryNetwork
from ..network.packet import PacketKind
from ..network.topologies import build_topology
from ..network.topology import Topology
from ..network.traffic import get_pattern
from ..network.trafficmatrix import TrafficMatrix
from ..sim.engine import Simulator
from .common import ExperimentResult

TOPOLOGIES = ("smesh", "storus", "sfbfly", "dfbfly", "ddfly")
LOADS = (0.1, 0.3, 0.5, 0.7, 0.9)

#: Packet size: a read response-sized packet (header + half a line).
PACKET_BYTES = 144


def offered_traffic(
    topo: Topology,
    pattern: str,
    num_gpus: int,
    packets_per_gpu: int,
    interval: int,
    rng: random.Random,
) -> Tuple[TrafficMatrix, List[Tuple[int, str, int]]]:
    """The offered load as a :class:`TrafficMatrix` plus its injection
    schedule ``(time_ps, terminal, dst_router)``.

    One loop draws both, preserving the harness's historical rng call
    order (per-GPU phase offset, then one pattern draw per packet), so
    measured rows are unchanged by the matrix refactor and the analytic
    tier can consume the exact same offered load.
    """
    pattern_fn = get_pattern(pattern)
    matrix = TrafficMatrix(topo.num_routers)
    schedule: List[Tuple[int, str, int]] = []
    for g in range(num_gpus):
        t = rng.randrange(interval)
        for i in range(packets_per_gpu):
            src_index = g * packets_per_gpu + i
            dst = pattern_fn(src_index, topo.num_routers, rng) % topo.num_routers
            matrix.add(f"gpu{g}", dst, 1.0, float(PACKET_BYTES))
            schedule.append((t, f"gpu{g}", dst))
            t += interval
    return matrix, schedule


def _measure(
    topology: str,
    load: float,
    num_gpus: int,
    packets_per_gpu: int,
    seed: int,
    pattern: str = "uniform",
) -> float:
    """Average request latency (ns) at the given offered load."""
    sim = Simulator()
    cfg = NetworkConfig()
    topo = build_topology(topology, num_gpus=num_gpus)
    net = MemoryNetwork(sim, topo, cfg)
    for r in range(topo.num_routers):
        net.set_router_handler(r, lambda p: None)

    rng = random.Random(seed)
    # Offered load: fraction of one GPU's aggregate injection bandwidth.
    gpu_bytes_per_ps = 8 * 20.0 * (1 << 30) / 1e12
    interval = max(1, round(PACKET_BYTES / (gpu_bytes_per_ps * load)))
    matrix, schedule = offered_traffic(
        topo, pattern, num_gpus, packets_per_gpu, interval, rng
    )
    for t, terminal, dst in schedule:
        packet = net.packet(PacketKind.READ_REQ, terminal, dst, PACKET_BYTES)
        sim.at(t, (lambda p=packet: net.send(p)))
    sim.run()
    assert net.stats.delivered == matrix.total_requests
    return net.stats.avg_latency_ps / 1e3


def run(
    topologies: Sequence[str] = TOPOLOGIES,
    loads: Sequence[float] = LOADS,
    num_gpus: int = 4,
    packets_per_gpu: int = 400,
    seed: int = 5,
    pattern: str = "uniform",
) -> ExperimentResult:
    result = ExperimentResult(
        "Ext: latency-load",
        f"Synthetic '{pattern}' traffic: average latency vs offered load",
        paper_note=(
            "methodology from [46]; explains the Fig. 16 ordering — sFBFLY "
            "has the flattest curve among sliced designs"
        ),
    )
    for topology in topologies:
        row = {"topology": topology}
        for load in loads:
            latency = _measure(
                topology, load, num_gpus, packets_per_gpu, seed, pattern
            )
            row[f"lat@{load:.0%}"] = round(latency, 1)
        result.add(**row)
    return result
