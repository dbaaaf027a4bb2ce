"""Shape of the per-access records: slotted, value semantics where the
model relies on them, and id sequences that advance one per record."""

from __future__ import annotations

import gc
import itertools

import pytest

from repro.core.kernel import Access
from repro.hmc.dram import Bank
from repro.hmc.sched import QueuedRequest
from repro.hmc.vault import Vault
from repro.mem import AccessType, DecodedAddress, MemoryAccess
from repro.config import NetworkConfig, SystemConfig
from repro.network.network import MemoryNetwork
from repro.network.packet import Packet, PacketKind
from repro.network.topologies import build_topology
from repro.sim.engine import Simulator
from repro.system.builder import MultiGPUSystem
from repro.system.configs import get_spec
from repro.system.fabric import NetEnvelope
from repro.system.run import run_workload
from repro.workloads.suite import get_workload

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


#: Every record a simulated memory request builds or touches.
PER_REQUEST_RECORDS = (
    Access,
    MemoryAccess,
    DecodedAddress,
    QueuedRequest,
    Packet,
    NetEnvelope,
    Bank,
)


def test_drained_point_builds_only_slotted_records(monkeypatch):
    # Every 500th vault service looks at every live object: CTA phases
    # hold their Access tuples, and requests and packets are in flight.
    seen = dict.fromkeys(PER_REQUEST_RECORDS, 0)
    with_dict = set()
    services = itertools.count()
    service = Vault._service

    def looking_service(vault, req, banks):
        if next(services) % 500 == 0:
            for obj in gc.get_objects():
                cls = obj.__class__
                if cls in seen:
                    seen[cls] += 1
                    if hasattr(obj, "__dict__"):
                        with_dict.add(cls.__name__)
        service(vault, req, banks)

    monkeypatch.setattr(Vault, "_service", looking_service)
    run_workload(get_spec("GMN"), get_workload("VEC", 0.25))
    assert all(seen.values()), {cls.__name__: n for cls, n in seen.items()}
    assert not with_dict


class TestAccess:
    def test_value_equality_and_hash(self):
        a = Access(0x80, 128, AccessType.READ)
        b = Access(vaddr=0x80, size=128, type=AccessType.READ)
        assert a == b and not (a != b)
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != Access(0x80, 128, AccessType.WRITE)
        assert a != Access(0x100, 128, AccessType.READ)
        assert a != (0x80, 128, AccessType.READ)

    def test_positional_and_keyword_construction(self):
        for access in (
            Access(0x80, 32, AccessType.ATOMIC),
            Access(0x80, size=32, type=AccessType.ATOMIC),
            Access(type=AccessType.ATOMIC, vaddr=0x80, size=32),
        ):
            assert (access.vaddr, access.size, access.type) == (
                0x80,
                32,
                AccessType.ATOMIC,
            )
        with pytest.raises(TypeError):
            Access(0x80, 32)

    def test_repr_names_every_field(self):
        assert repr(Access(128, 64, AccessType.WRITE)) == (
            "Access(vaddr=128, size=64, type=<AccessType.WRITE: 'write'>)"
        )


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
            return MemoryNetwork(
                Simulator(),
                build_topology("sfbfly", SystemConfig(num_gpus=4)),
                NetworkConfig(),
            )

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
