"""Interconnection-network substrate: packets, channels, topologies, routing.

The public surface of this subpackage:

- :class:`~repro.network.packet.Packet` and :class:`PacketKind`
- :class:`~repro.network.channel.Channel`
- :class:`~repro.network.topology.Topology`
- :func:`~repro.network.topologies.build_topology` (and :func:`build_cmn`),
  each built from a :class:`~repro.config.SystemConfig`
- :class:`~repro.network.network.MemoryNetwork`
- routing policies via :func:`~repro.network.routing.make_routing`
"""

from .channel import Channel, ChannelStats
from .flitnet import FlitNetwork
from .metrics import TopologyMetrics, bisection_bandwidth_gbps, topology_metrics
from .network import MemoryNetwork, NetworkStats
from .traffic import PATTERNS, get_pattern
from .trafficmatrix import FlowRouter, TrafficMatrix
from .packet import (
    MessageClass,
    Packet,
    PacketKind,
    response_kind,
    wire_bytes,
)
from .routing import MinimalRouting, UGALRouting, make_routing
from .topology import PassthroughChain, TerminalAttachment, Topology
from .topologies import BUILDERS, build_topology

__all__ = [
    "Channel",
    "ChannelStats",
    "FlitNetwork",
    "TopologyMetrics",
    "bisection_bandwidth_gbps",
    "topology_metrics",
    "MemoryNetwork",
    "NetworkStats",
    "PATTERNS",
    "get_pattern",
    "FlowRouter",
    "TrafficMatrix",
    "MessageClass",
    "Packet",
    "PacketKind",
    "response_kind",
    "wire_bytes",
    "MinimalRouting",
    "UGALRouting",
    "make_routing",
    "PassthroughChain",
    "TerminalAttachment",
    "Topology",
    "BUILDERS",
    "build_topology",
]
