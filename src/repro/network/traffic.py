"""Synthetic traffic patterns for network characterization ([46] ch. 3).

Each pattern maps a source index to a destination index over ``n``
endpoints; the latency-load harness uses them to stress topologies in the
standard ways:

- ``uniform``        — destination drawn uniformly at random;
- ``bit_complement`` — dst = ~src (stresses the bisection);
- ``transpose``      — dst = src rotated by half the address bits (adversarial
  for dimension-ordered meshes);
- ``neighbor``       — dst = src + 1 (maximal locality);
- ``hotspot``        — a fraction of traffic targets one endpoint, the rest
  uniform (models CG.S-like imbalance).

Patterns are plain ``(src, n, rng) -> dst`` functions.  An
:class:`OfferedLoad` turns one into an injection schedule at a given
offered load: the workload of a network-only run, which
:func:`repro.system.run.run_workload` drives through a bare memory network
(``ext-latency-load``, ``ext-flit``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..errors import ConfigError

PatternFn = Callable[[int, int, random.Random], int]


def uniform(src: int, n: int, rng: random.Random) -> int:
    return rng.randrange(n)


def bit_complement(src: int, n: int, rng: random.Random) -> int:
    bits = max(1, (n - 1).bit_length())
    return (~src) & ((1 << bits) - 1) if n & (n - 1) == 0 else (n - 1 - src)


def transpose(src: int, n: int, rng: random.Random) -> int:
    bits = max(2, (n - 1).bit_length())
    if n & (n - 1):  # non power of two: fall back to a fixed shuffle
        return (src * 7 + 3) % n
    half = bits // 2
    low = src & ((1 << half) - 1)
    high = src >> half
    return (low << (bits - half)) | high


def neighbor(src: int, n: int, rng: random.Random) -> int:
    return (src + 1) % n


def make_hotspot(hot: int = 0, fraction: float = 0.3) -> PatternFn:
    """A pattern closure sending ``fraction`` of traffic to one endpoint."""
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError(f"hotspot fraction {fraction} outside [0, 1]")

    def hotspot(src: int, n: int, rng: random.Random) -> int:
        if rng.random() < fraction:
            return hot % n
        return rng.randrange(n)

    return hotspot


PATTERNS: Dict[str, PatternFn] = {
    "uniform": uniform,
    "bit_complement": bit_complement,
    "transpose": transpose,
    "neighbor": neighbor,
    "hotspot": make_hotspot(),
}


def get_pattern(name: str) -> PatternFn:
    try:
        return PATTERNS[name]
    except KeyError:
        raise ConfigError(
            f"unknown traffic pattern {name!r}; available: {sorted(PATTERNS)}"
        ) from None


#: Packet size of synthetic traffic: a read response (header + half a line).
PACKET_BYTES = 144


@dataclass(frozen=True)
class OfferedLoad:
    """``pattern`` traffic from every GPU at ``load``, a fraction of one
    GPU's injection bandwidth: ``packets_per_gpu`` packets of
    :data:`PACKET_BYTES`, destinations and phases drawn from ``seed``."""

    load: float
    pattern: str = "uniform"
    packets_per_gpu: int = 400
    seed: int = 5

    def __post_init__(self) -> None:
        if not self.load > 0:
            raise ConfigError(f"offered load must be > 0, got {self.load}")

    @property
    def name(self) -> str:
        return f"{self.pattern}@{self.load:.0%}"

    def schedule(self, num_routers: int, cfg) -> List[Tuple[int, str, int]]:
        """The injection schedule ``(time_ps, terminal, dst_router)`` of
        ``cfg.num_gpus`` GPUs.

        Each GPU injects one packet per interval from a random phase; the
        interval makes ``load`` a fraction of the GPU's aggregate channel
        bandwidth.  One rng draws each GPU's phase, then one destination
        per packet, in GPU order.
        """
        gbps = cfg.gpu.num_channels * cfg.network.channel_gbps
        interval = max(1, round(PACKET_BYTES / (gbps * (1 << 30) / 1e12 * self.load)))
        pattern_fn = get_pattern(self.pattern)
        rng = random.Random(self.seed)
        schedule: List[Tuple[int, str, int]] = []
        for g in range(cfg.num_gpus):
            t = rng.randrange(interval)
            for i in range(self.packets_per_gpu):
                src_index = g * self.packets_per_gpu + i
                dst = pattern_fn(src_index, num_routers, rng) % num_routers
                schedule.append((t, f"gpu{g}", dst))
                t += interval
        return schedule
