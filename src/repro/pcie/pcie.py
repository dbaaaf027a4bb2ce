"""PCIe interconnect model (conventional multi-GPU baseline, Fig. 1(a)).

Star topology: every device (the CPU and each GPU) hangs off a switch with
one full-duplex 16-lane PCIe v3.0 link (15.75 GB/s per direction, Section
VI-A).  A transaction serializes on the source's upstream link and the
destination's downstream link and pays the fabric latency once.  Remote GPU
memory access additionally traverses the remote GPU itself (Fig. 9(a)); the
system builder charges that forwarding cost.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional

from ..config import PCIeConfig
from ..errors import SimulationError
from ..network.channel import Channel
from ..sim.engine import Simulator


class PCIeSwitch:
    """A PCIe switch with one link per attached device."""

    def __init__(self, sim: Simulator, cfg: Optional[PCIeConfig] = None) -> None:
        self.sim = sim
        self.cfg = cfg or PCIeConfig()
        self._up: Dict[str, Channel] = {}
        self._down: Dict[str, Channel] = {}

    # ------------------------------------------------------------------
    def attach(self, device: str) -> None:
        if device in self._up:
            raise SimulationError(f"PCIe device {device!r} already attached")
        self._up[device] = Channel(f"pcie:{device}->sw", device, "switch", self.cfg.gbps)
        self._down[device] = Channel(f"pcie:sw->{device}", "switch", device, self.cfg.gbps)

    def channels(self) -> List[Channel]:
        """Every link of the switch: each device's upstream then downstream."""
        return [ch for dev in self._up for ch in (self._up[dev], self._down[dev])]

    # Every transaction crosses exactly one upstream link once, so the
    # switch's totals are its upstream channels' counters.
    @property
    def transactions(self) -> int:
        return sum(ch.stats.packets for ch in self._up.values())

    @property
    def bytes(self) -> int:
        """Bytes moved through the switch, headers included."""
        return sum(ch.stats.bytes for ch in self._up.values())

    # ------------------------------------------------------------------
    def transaction(
        self,
        src: str,
        dst: str,
        payload_bytes: int,
        on_done: Callable[[], None],
    ) -> None:
        """Move ``payload_bytes`` from ``src`` to ``dst`` through the switch.

        ``on_done`` fires when the last byte reaches the destination.
        """
        try:
            up = self._up[src]
            down = self._down[dst]
        except KeyError as exc:
            raise SimulationError(f"PCIe device not attached: {exc}") from None
        size = payload_bytes + self.cfg.header_bytes
        at_switch = up.transmit(size, self.sim.now + self.cfg.latency_ps // 2)
        tracer = self.sim.tracer
        if tracer is not None:
            start_ps = self.sim.now
            inner = on_done

            def on_done() -> None:
                tracer.complete(
                    "pcie",
                    f"{src}->{dst}",
                    start_ps,
                    self.sim.now - start_ps,
                    tid=f"pcie.{src}",
                    args={"bytes": size},
                )
                inner()

        self.sim.at(at_switch, partial(self._forward, down, size, on_done))

    def _forward(self, down: Channel, size: int, on_done: Callable[[], None]) -> None:
        arrive = down.transmit(size, self.sim.now + self.cfg.latency_ps // 2)
        self.sim.at(arrive, on_done)
