"""Shape of the per-access records: slotted, value semantics where the
model relies on them, and id sequences that advance one per record."""

from __future__ import annotations

import pytest

from repro.hmc.sched import QueuedRequest
from repro.mem import AccessType, DecodedAddress, MemoryAccess
from repro.config import NetworkConfig
from repro.network.network import MemoryNetwork
from repro.network.packet import Packet, PacketKind
from repro.network.topologies import build_sfbfly
from repro.sim.engine import Simulator
from repro.system.builder import MultiGPUSystem
from repro.system.configs import get_spec
from repro.system.fabric import NetEnvelope

from tests.conftest import tiny_system_config


def _access(**kw) -> MemoryAccess:
    return MemoryAccess(paddr=0x80, size=128, type=AccessType.READ, **kw)


def _records():
    access = _access()
    return [
        access,
        DecodedAddress(0, 1, 2, 3, 4),
        Packet(PacketKind.READ_REQ, "gpu0", 1, 16),
        NetEnvelope("req", access, reply_to="gpu0"),
        QueuedRequest(access, print, 0, 0),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_have_no_instance_dict(record):
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.not_a_field = 1


class TestDecodedAddress:
    def test_value_equality_and_hash(self):
        a = DecodedAddress(cluster=1, local_hmc=2, vault=3, bank=4, row=5)
        b = DecodedAddress(1, 2, 3, 4, 5)
        assert a == b and not (a != b)
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != DecodedAddress(1, 2, 3, 4, 6)
        assert a != (1, 2, 3, 4, 5)

    def test_repr_names_every_field(self):
        assert repr(DecodedAddress(1, 2, 3, 4, 5)) == (
            "DecodedAddress(cluster=1, local_hmc=2, vault=3, bank=4, row=5)"
        )

    def test_hmc_index_is_local_hmc(self):
        assert DecodedAddress(1, 2, 3, 4, 5).hmc_index == 2


class TestIdSequences:
    def test_aid_advances_by_one_per_access(self):
        first = _access()
        second = _access()
        assert second.aid == first.aid + 1

    def test_explicit_aid_is_kept_and_consumes_no_id(self):
        before = _access()
        view = _access(aid=before.aid)
        after = _access()
        assert view.aid == before.aid
        assert after.aid == before.aid + 1

    def test_pid_advances_by_one_and_resets(self):
        # Each network numbers its own packets from 0, so a new network
        # (a new run) starts the sequence afresh.
        def net():
            return MemoryNetwork(Simulator(), build_sfbfly(num_gpus=4), NetworkConfig())

        first = net()
        pids = [first.packet(PacketKind.READ_REQ, "gpu0", 1, 16).pid for _ in range(3)]
        assert pids == [0, 1, 2]
        assert net().packet(PacketKind.WRITE_ACK, 1, "gpu0", 16).pid == 0

    def test_host_view_keeps_the_aid(self):
        # GMN transfers by memcpy, so the host reads its own copy in CPU
        # memory: a new access record with the original's identity.
        system = MultiGPUSystem(get_spec("GMN"), tiny_system_config(2))
        paddr = system.mapping.page_frame_base(0, 3, system.cfg.page_bytes)
        access = MemoryAccess(
            paddr, 128, AccessType.READ, "cpu", decoded=system.mapping.decode(paddr)
        )
        view = system.fabric.host_view(access)
        assert view is not access
        assert view.aid == access.aid
        assert view.decoded.cluster == system.cpu_cluster
        assert view.decoded.vault == access.decoded.vault
