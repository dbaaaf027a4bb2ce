"""Tests for packet kinds and wire-size helpers."""

import pytest

from repro.config import NetworkConfig, SystemConfig
from repro.mem import AccessType
from repro.network.network import MemoryNetwork
from repro.network.packet import (
    MessageClass,
    Packet,
    PacketKind,
    response_kind,
    wire_bytes,
)
from repro.network.topologies import build_topology
from repro.sim.engine import Simulator


class TestKinds:
    def test_requests_are_requests(self):
        for kind in (PacketKind.READ_REQ, PacketKind.WRITE_REQ, PacketKind.ATOMIC_REQ):
            assert kind.is_request
            assert kind.message_class is MessageClass.REQUEST

    def test_responses_are_responses(self):
        for kind in (PacketKind.READ_RESP, PacketKind.WRITE_ACK, PacketKind.ATOMIC_RESP):
            assert not kind.is_request
            assert kind.message_class is MessageClass.RESPONSE

    def test_response_kind_mapping(self):
        assert response_kind(PacketKind.READ_REQ) is PacketKind.READ_RESP
        assert response_kind(PacketKind.WRITE_REQ) is PacketKind.WRITE_ACK
        assert response_kind(PacketKind.ATOMIC_REQ) is PacketKind.ATOMIC_RESP

    def test_response_kind_rejects_responses(self):
        with pytest.raises(ValueError):
            response_kind(PacketKind.READ_RESP)


class TestSizes:
    def test_read_request_is_header_only(self):
        assert wire_bytes(AccessType.READ, 128, 16) == 16

    def test_write_request_carries_data(self):
        assert wire_bytes(AccessType.WRITE, 128, 16) == 16 + 128

    def test_read_response_carries_data(self):
        assert wire_bytes(AccessType.READ, 128, 16, response=True) == 16 + 128

    def test_write_ack_is_header_only(self):
        assert wire_bytes(AccessType.WRITE, 128, 16, response=True) == 16

    def test_custom_header(self):
        assert wire_bytes(AccessType.READ, 0, 24) == 24


class TestPacket:
    def test_unique_ids(self):
        net = MemoryNetwork(
            Simulator(),
            build_topology("sfbfly", SystemConfig(num_gpus=4)),
            NetworkConfig(),
        )
        a = net.packet(PacketKind.READ_REQ, "gpu0", 1, 16)
        b = net.packet(PacketKind.READ_REQ, "gpu0", 1, 16)
        assert a.pid != b.pid

    def test_message_class_follows_kind(self):
        p = Packet(PacketKind.WRITE_ACK, 0, "gpu0", 16)
        assert p.message_class is MessageClass.RESPONSE
