"""Set-associative caches with LRU replacement.

GPU L1/L2 caches follow Section III-D: **write-through, write no-allocate**
for global memory so the relaxed consistency model holds across GPUs without
coherence, and atomics always evict the target line before executing at the
HMC.  The write policy itself is enforced by the GPU memory pipeline
(:mod:`repro.gpu.gpu`); this module provides the lookup/fill/evict mechanics
and hit statistics.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from typing import Dict, Optional

from ..config import CacheConfig


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class Cache:
    """LRU set-associative cache over line addresses."""

    def __init__(self, cfg: CacheConfig, name: str = "cache") -> None:
        self.cfg = cfg
        self.name = name
        self.num_sets = cfg.num_sets
        # Per-instance copies of the geometry every probe needs.
        self._line_bytes = cfg.line_bytes
        self._ways = cfg.ways
        # One ordered dict per set: tag -> True, LRU at the front.
        self._sets: Dict[int, "collections.OrderedDict[int, bool]"] = {}
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Each probe splits the address inline (line = paddr // line_bytes;
    # set = line % num_sets; tag = line // num_sets): lookup and fill run
    # up to twice per cache level per memory access.
    def lookup(self, paddr: int, update_lru: bool = True, count: bool = True) -> bool:
        """Probe the cache; returns True on hit."""
        line = paddr // self._line_bytes
        num_sets = self.num_sets
        entries = self._sets.get(line % num_sets)
        if entries is not None:
            tag = line // num_sets
            if tag in entries:
                if update_lru:
                    entries.move_to_end(tag)
                if count:
                    self.stats.hits += 1
                return True
        if count:
            self.stats.misses += 1
        return False

    def fill(self, paddr: int) -> Optional[int]:
        """Insert a line; returns the evicted line's base address, if any."""
        line = paddr // self._line_bytes
        num_sets = self.num_sets
        set_idx = line % num_sets
        tag = line // num_sets
        entries = self._sets.get(set_idx)
        if entries is None:
            entries = self._sets[set_idx] = collections.OrderedDict()
        elif tag in entries:
            entries.move_to_end(tag)
            return None
        evicted = None
        if len(entries) >= self._ways:
            victim_tag, _ = entries.popitem(last=False)
            evicted = (victim_tag * num_sets + set_idx) * self._line_bytes
        entries[tag] = True
        return evicted

    def evict(self, paddr: int) -> bool:
        """Remove a line if present (atomics, Section III-D)."""
        line = paddr // self._line_bytes
        entries = self._sets.get(line % self.num_sets)
        tag = line // self.num_sets
        if entries is not None and tag in entries:
            del entries[tag]
            return True
        return False

    def contains(self, paddr: int) -> bool:
        return self.lookup(paddr, update_lru=False, count=False)

    def flush(self) -> None:
        self._sets.clear()

    @property
    def occupancy(self) -> int:
        return sum(len(entries) for entries in self._sets.values())

    def __repr__(self) -> str:  # pragma: no cover
        return f"Cache({self.name}, {self.cfg.size_bytes}B/{self.cfg.ways}way)"
