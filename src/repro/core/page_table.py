"""Shared virtual memory: page table + page placement policies.

Under SKE all GPUs (and the CPU, for UMN) share one virtual address space
(UVA) and one page table; the runtime keeps the per-GPU copies consistent
(Section III-C), which we model as a single shared table with zero-latency
translation.

Placement policies decide which **cluster** backs each virtual page:

- ``random``     — the paper's random page placement (Section VI-A).
- ``round_robin``— deterministic striping across clusters.
- ``local``      — everything on one cluster (e.g. single-GPU baselines, or
  zero-copy placement on the CPU cluster).
- ``weighted``   — explicit per-cluster probabilities (the Fig. 7 sweeps).
- ``first_touch``— NUMA-style: a page lands on the cluster of the device
  that first touches it (our extension; the paper notes optimizing the
  mapping for locality "remains to be seen", Section III-C).
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, Dict, Optional, Sequence

from ..errors import AddressError, ConfigError
from .address import AddressMapping


class PagePlacement:
    """Chooses a backing cluster for each newly touched virtual page."""

    def __init__(
        self,
        policy: str,
        clusters: Sequence[int],
        seed: int = 1,
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        if not clusters:
            raise ConfigError("page placement needs at least one cluster")
        self.policy = policy
        self.clusters = list(clusters)
        self._rng = random.Random(seed)
        self._next = 0
        if policy == "weighted":
            if weights is None or len(weights) != len(self.clusters):
                raise ConfigError("weighted placement needs one weight per cluster")
            total = float(sum(weights))
            if total <= 0:
                raise ConfigError("weights must sum to a positive value")
            self._weights = [w / total for w in weights]
        elif policy in ("random", "round_robin", "local", "first_touch"):
            self._weights = None
            if policy == "local" and len(self.clusters) != 1:
                raise ConfigError("local placement takes exactly one cluster")
        else:
            raise ConfigError(f"unknown placement policy {policy!r}")

    def choose(self, hint: Optional[int] = None) -> int:
        """Pick a cluster; ``hint`` is the toucher's home cluster (used by
        ``first_touch``, ignored by the other policies)."""
        if self.policy == "first_touch":
            if hint is not None and hint in self.clusters:
                return hint
            return self._rng.choice(self.clusters)
        if self.policy == "random":
            return self._rng.choice(self.clusters)
        if self.policy == "round_robin":
            cluster = self.clusters[self._next % len(self.clusters)]
            self._next += 1
            return cluster
        if self.policy == "local":
            return self.clusters[0]
        # weighted
        return self._rng.choices(self.clusters, weights=self._weights, k=1)[0]

    def shares(self, hint: Optional[int] = None) -> Dict[int, float]:
        """The expected share of pages :meth:`choose` places on each
        cluster for a toucher whose home cluster is ``hint`` (the analytic
        tier's placement, in place of a per-page draw)."""
        if self.policy == "local":
            return {self.clusters[0]: 1.0}
        if self.policy == "weighted":
            return {c: w for c, w in zip(self.clusters, self._weights) if w > 0.0}
        if self.policy == "first_touch" and hint in self.clusters:
            return {hint: 1.0}
        share = 1.0 / len(self.clusters)
        return {c: share for c in self.clusters}


class PageTable:
    """Demand-allocated virtual-to-physical page table.

    Pages are allocated on first touch; each cluster hands out frames
    drawn at random from its frame space (so pages land in different DRAM
    rows/banks, as they would on a long-running system) through
    :meth:`repro.core.address.AddressMapping.page_frame_base`.
    """

    def __init__(
        self,
        mapping: AddressMapping,
        placement: PagePlacement,
        page_bytes: int = 4096,
    ) -> None:
        self.mapping = mapping
        self.placement = placement
        self.page_bytes = page_bytes
        self._frame_rng = random.Random(placement._rng.random())
        self._frame_space = mapping.frames_per_cluster(page_bytes)
        self._used_frames: Dict[int, set] = {c: set() for c in placement.clusters}
        self._table: Dict[int, int] = {}
        self._page_cluster: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def translate(self, vaddr: int, hint: Optional[int] = None) -> int:
        """Translate a virtual address, allocating the page on first touch.

        ``hint`` is the touching device's home cluster, consumed by the
        ``first_touch`` placement policy.
        """
        return self._translate(hint, vaddr)

    def client(self, hint: Optional[int]) -> Callable[[int], int]:
        """``translate`` for one client whose home cluster is ``hint``: a
        one-argument callable, called once per memory access (a positional
        ``partial``, cheaper per call than one binding ``hint=``)."""
        return partial(self._translate, hint)

    def _translate(self, hint: Optional[int], vaddr: int) -> int:
        if vaddr < 0:
            raise AddressError(f"negative virtual address {vaddr}")
        vpn = vaddr // self.page_bytes
        base = self._table.get(vpn)
        if base is None:
            base = self._allocate(vpn, hint)
        return base + (vaddr % self.page_bytes)

    def _allocate(self, vpn: int, hint: Optional[int] = None) -> int:
        cluster = self.placement.choose(hint)
        used = self._used_frames.setdefault(cluster, set())
        if len(used) >= self._frame_space:
            raise AddressError(f"cluster {cluster} out of page frames")
        while True:
            seq = self._frame_rng.randrange(self._frame_space)
            if seq not in used:
                used.add(seq)
                break
        base = self.mapping.page_frame_base(cluster, seq, self.page_bytes)
        self._table[vpn] = base
        self._page_cluster[vpn] = cluster
        return base

    # ------------------------------------------------------------------
    @property
    def num_pages(self) -> int:
        return len(self._table)

    def pages_per_cluster(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for cluster in self._page_cluster.values():
            counts[cluster] = counts.get(cluster, 0) + 1
        return counts

    def reset(self) -> None:
        """Drop all translations (e.g. between experiment repetitions)."""
        self._table.clear()
        self._page_cluster.clear()
        for used in self._used_frames.values():
            used.clear()
