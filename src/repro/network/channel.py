"""Directed channels with serialization delay, contention, and traffic stats.

A channel transmits one packet at a time; a packet occupies the channel for
its serialization time (size / bandwidth).  Contention is modeled by the
channel's ``busy_until`` horizon: a packet arriving while the channel is busy
queues behind the traffic already scheduled.  This packet-granularity
store-and-forward model replaces the flit-level wormhole model of the
authors' booksim setup (see DESIGN.md section 2).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from ..units import bytes_per_ps

_DATACLASS_OPTS = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(**_DATACLASS_OPTS)
class ChannelStats:
    packets: int = 0
    bytes: int = 0
    #: Total time (ps) the channel spent transmitting.
    busy_ps: int = 0


class Channel:
    """A directed point-to-point link.

    ``width`` multiplies the base channel bandwidth; it models channel
    aggregation (e.g. a GPU's two physical channels to each local HMC, or the
    ``-2x`` topology variants that double slice channels).
    """

    __slots__ = (
        "name", "src", "dst", "gbps", "width", "busy_until", "stats",
        "_bytes_per_ps",
    )

    def __init__(
        self,
        name: str,
        src: object,
        dst: object,
        gbps: float,
        width: int = 1,
    ) -> None:
        self.name = name
        self.src = src
        self.dst = dst
        self.gbps = gbps
        self.width = width
        self.busy_until: int = 0
        self.stats = ChannelStats()
        # serialization_ps runs once per packet per hop; the bandwidth is
        # fixed at construction, so the bytes/ps conversion is hoisted here.
        self._bytes_per_ps = bytes_per_ps(gbps * width)

    # ------------------------------------------------------------------
    @property
    def effective_gbps(self) -> float:
        return self.gbps * self.width

    @property
    def bytes_per_ps(self) -> float:
        """Bandwidth in bytes/ps (``effective_gbps`` converted once)."""
        return self._bytes_per_ps

    def serialization_ps(self, num_bytes: int) -> int:
        if num_bytes <= 0:
            return 0
        return max(1, round(num_bytes / self._bytes_per_ps))

    def queue_delay_ps(self, now_ps: int) -> int:
        """How long a packet arriving now would wait before transmission."""
        return max(0, self.busy_until - now_ps)

    def transmit(self, num_bytes: int, now_ps: int) -> int:
        """Schedule a transfer; returns the time the last byte arrives."""
        # Runs once per packet per hop — serialization_ps/max are inlined.
        busy = self.busy_until
        start = now_ps if now_ps > busy else busy
        if num_bytes <= 0:
            ser = 0
        else:
            ser = round(num_bytes / self._bytes_per_ps)
            if ser < 1:
                ser = 1
        end = start + ser
        self.busy_until = end
        stats = self.stats
        stats.packets += 1
        stats.bytes += num_bytes
        stats.busy_ps += ser
        return end

    def __repr__(self) -> str:  # pragma: no cover
        return f"Channel({self.name}, {self.src}->{self.dst}, x{self.width})"
