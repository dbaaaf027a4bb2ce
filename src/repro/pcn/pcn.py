"""NVLink-style processor-centric network (Fig. 1(b), extension).

Dedicated point-to-point links between processors: a full mesh among the
GPUs plus CPU-GPU links.  Unlike the PCIe switch there is no shared fabric
— each pair owns its links — but like any processor-centric design, remote
*memory* is only reachable through the processor that owns it (Section II-B:
"the topologies are limited to processor-centric network").
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

from ..config import PCNConfig
from ..errors import SimulationError
from ..network.channel import Channel
from ..sim.engine import Simulator


def link_width(cfg: PCNConfig, a: str, b: str, cpu_name: str = "cpu") -> int:
    """Parallel links between processors ``a`` and ``b``."""
    return cfg.cpu_links_per_gpu if cpu_name in (a, b) else cfg.links_per_pair


class PCNFabric:
    """Point-to-point link mesh between the CPU and the GPUs."""

    def __init__(
        self,
        sim: Simulator,
        gpu_names: List[str],
        cfg: Optional[PCNConfig] = None,
        cpu_name: str = "cpu",
    ) -> None:
        self.sim = sim
        self.cfg = cfg or PCNConfig()
        self.cpu_name = cpu_name
        self._links: Dict[Tuple[str, str], Channel] = {}
        for a, b in itertools.combinations(gpu_names, 2):
            self._add_pair(a, b)
        for gpu in gpu_names:
            self._add_pair(cpu_name, gpu)

    def _add_pair(self, a: str, b: str) -> None:
        width = link_width(self.cfg, a, b, self.cpu_name)
        self._links[(a, b)] = Channel(
            f"pcn:{a}->{b}", a, b, self.cfg.link_gbps, width
        )
        self._links[(b, a)] = Channel(
            f"pcn:{b}->{a}", b, a, self.cfg.link_gbps, width
        )

    def channels(self) -> List[Channel]:
        """Every directed link, each pair's two directions together."""
        return list(self._links.values())

    # Every transaction crosses exactly one link once, so the fabric's
    # totals are its links' counters.
    @property
    def transactions(self) -> int:
        return sum(ch.stats.packets for ch in self._links.values())

    @property
    def bytes(self) -> int:
        """Bytes moved over the links, headers included."""
        return sum(ch.stats.bytes for ch in self._links.values())

    # ------------------------------------------------------------------
    def link(self, src: str, dst: str) -> Channel:
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise SimulationError(f"no PCN link {src} -> {dst}") from None

    def transaction(
        self,
        src: str,
        dst: str,
        payload_bytes: int,
        on_done: Callable[[], None],
    ) -> None:
        """Move ``payload_bytes`` over the dedicated src->dst link."""
        channel = self.link(src, dst)
        size = payload_bytes + self.cfg.header_bytes
        arrive = channel.transmit(size, self.sim.now + self.cfg.latency_ps)
        self.sim.at(arrive, on_done)
