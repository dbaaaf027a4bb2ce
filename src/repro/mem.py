"""Shared memory-access vocabulary used by GPUs, CPUs, and HMCs.

:class:`DecodedAddress` and :class:`MemoryAccess` are built once per
simulated memory access, so both are plain ``__slots__`` records with a
hand-written ``__init__`` rather than dataclasses: no per-field
``object.__setattr__`` (frozen dataclasses) and no ``default_factory``
call on every construction.
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional


class AccessType(enum.Enum):
    READ = "read"
    WRITE = "write"
    ATOMIC = "atomic"


class DecodedAddress:
    """A physical address decoded through the memory address mapping
    (``RW:CLH:BK:CT:VL:LC:CLL:BY``, Section VI-A).

    A value: equal (and hashing equal) to any other decode of the same
    coordinates.
    """

    __slots__ = ("cluster", "local_hmc", "vault", "bank", "row")

    def __init__(
        self, cluster: int, local_hmc: int, vault: int, bank: int, row: int
    ) -> None:
        self.cluster = cluster
        self.local_hmc = local_hmc
        self.vault = vault
        self.bank = bank
        self.row = row

    def _key(self) -> tuple:
        return (self.cluster, self.local_hmc, self.vault, self.bank, self.row)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"DecodedAddress(cluster={self.cluster!r}, "
            f"local_hmc={self.local_hmc!r}, vault={self.vault!r}, "
            f"bank={self.bank!r}, row={self.row!r})"
        )


_access_ids = itertools.count()


class MemoryAccess:
    """One memory transaction as seen by the memory system.

    ``aid`` defaults to the next value of a process-wide sequence; pass it
    explicitly to make a view of an existing access (see
    :meth:`repro.system.fabric.Fabric.host_view`).
    """

    __slots__ = ("paddr", "size", "type", "requester", "vaddr", "decoded", "aid")

    def __init__(
        self,
        paddr: int,
        size: int,
        type: AccessType,
        requester: str = "",
        vaddr: Optional[int] = None,
        decoded: Optional[DecodedAddress] = None,
        aid: Optional[int] = None,
    ) -> None:
        self.paddr = paddr
        self.size = size
        self.type = type
        self.requester = requester
        self.vaddr = vaddr
        self.decoded = decoded
        self.aid = next(_access_ids) if aid is None else aid

    def __repr__(self) -> str:  # pragma: no cover
        return f"MemoryAccess#{self.aid}({self.type.value} {self.size}B @0x{self.paddr:x})"
