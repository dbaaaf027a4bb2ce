"""Network packets for the packetized HMC-style memory interface.

The GPU/CPU and HMCs exchange high-level request/response messages
(Section II-B, Fig. 3(b)): read/write/atomic requests carry a 16 B header
(plus write data), responses carry the header plus read data.
"""

from __future__ import annotations

import enum
from typing import Any, Optional

from ..mem import AccessType

_READ = AccessType.READ
_WRITE = AccessType.WRITE


class MessageClass(enum.IntEnum):
    """Virtual-channel message classes (2 classes per Section VI-A)."""

    REQUEST = 0
    RESPONSE = 1


class PacketKind(enum.Enum):
    READ_REQ = "read_req"
    WRITE_REQ = "write_req"
    ATOMIC_REQ = "atomic_req"
    READ_RESP = "read_resp"
    WRITE_ACK = "write_ack"
    ATOMIC_RESP = "atomic_resp"

    @property
    def is_request(self) -> bool:
        return self in (
            PacketKind.READ_REQ,
            PacketKind.WRITE_REQ,
            PacketKind.ATOMIC_REQ,
        )

    @property
    def message_class(self) -> MessageClass:
        return MessageClass.REQUEST if self.is_request else MessageClass.RESPONSE


class Packet:
    """One message traversing the memory network.

    ``src`` / ``dst`` are endpoint names: a terminal name (``"gpu0"``,
    ``"cpu"``) or a router index (int) for HMC destinations.

    A plain ``__slots__`` record (a request and a response are built per
    networked memory access).  ``pid`` feeds the minimal-routing
    round-robin tie-break (``hops[packet.pid % len(hops)]``), so a run's
    results depend on it: simulation code builds packets through
    :meth:`MemoryNetwork.packet <repro.network.network.MemoryNetwork.packet>`,
    which numbers them per network in construction order.
    """

    __slots__ = (
        "kind", "src", "dst", "size_bytes", "payload", "pass_through", "pid",
        "injected_at_ps", "hops", "eject_router",
    )

    def __init__(
        self,
        kind: PacketKind,
        src: Any,
        dst: Any,
        size_bytes: int,
        payload: Any = None,
        pass_through: bool = False,
        pid: int = 0,
    ) -> None:
        self.kind = kind
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.payload = payload
        #: Overlay pass-through flag (CPU packets on the UMN overlay).
        self.pass_through = pass_through
        self.pid = pid
        #: Filled in by the network: injection time and hop count, for stats.
        self.injected_at_ps = -1
        self.hops = 0
        #: For terminal destinations: the ejection router chosen when routing
        #: began (fixed so per-hop decisions cannot oscillate between exits).
        self.eject_router: Optional[int] = None

    @property
    def message_class(self) -> MessageClass:
        return self.kind.message_class

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet#{self.pid}({self.kind.value}, {self.src}->{self.dst}, "
            f"{self.size_bytes}B)"
        )


def wire_bytes(
    access_type: AccessType, size: int, header: int, response: bool = False
) -> int:
    """Wire size of a memory access's request message, or with
    ``response`` of its response: the header plus the access's ``size``
    bytes, except that a read request and a write ack carry no data.

    Every link of both fidelity tiers sizes messages here.  The fabric
    calls it once per message, hence one ``is`` test rather than an
    enum-keyed lookup (``Enum.__hash__`` is a Python-level call).
    """
    if access_type is (_WRITE if response else _READ):
        return header
    return header + size


def response_kind(request: PacketKind) -> PacketKind:
    """Map a request kind to its response kind."""
    # ``is``-chain rather than an enum-keyed dict: Enum.__hash__ is a
    # Python-level call and this runs once per memory response.
    if request is PacketKind.READ_REQ:
        return PacketKind.READ_RESP
    if request is PacketKind.WRITE_REQ:
        return PacketKind.WRITE_ACK
    if request is PacketKind.ATOMIC_REQ:
        return PacketKind.ATOMIC_RESP
    raise ValueError(f"{request} has no response kind")
