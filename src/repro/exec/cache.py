"""Content-addressed cache of simulation results.

Sweeps re-run many identical points: Fig. 14, Fig. 18, and Fig. 19 all
simulate overlapping (architecture, workload, config) combinations, and a
re-invocation of ``repro all`` repeats every one of them.  Since every run
is a pure function of its inputs (packet ids numbered per network, all
RNG seeded from the job), a :class:`RunResult` can be keyed on a stable hash of

- the architecture spec,
- the full system config,
- the workload reference (name, scale, factory, kwargs),
- any extra ``run_workload`` keyword arguments, and
- a digest of the simulator's own source code (so a code change can never
  resurrect stale results).

Results are stored pickled — in memory always, and under a directory when
one is given (``--cache DIR`` / ``REPRO_CACHE_DIR``) so hits survive
across invocations.  ``get`` always unpickles a fresh copy, so a cached
result can be mutated by its consumer without corrupting the cache.

The cache can be **size-capped** (``max_mb=`` / ``REPRO_CACHE_MAX_MB``):
when a store pushes the footprint past the cap, least-recently-used
entries are evicted — by access order in memory, by file mtime on disk
(a hit touches the file's mtime so hot entries survive) — and counted in
:class:`CacheStats.evicted`.  Keys *pinned* via :meth:`ResultCache.pin`
(a long-lived server pins every in-flight job) are never evicted.  The
cap is off by default for CLI runs, whose lifetime bounds growth, and on
by default for ``repro serve``, which would otherwise grow without bound
(docs/serving.md).

The identity half of the key is *not* computed here: it is the canonical
:meth:`~repro.system.spec.SystemSpec.to_dict` form of the job's spec, so
anything that round-trips to the same canonical spec hits the same entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

from ..system.metrics import RunResult
from .jobs import SweepJob

#: Bump when the cached payload's semantics or the fingerprint layout
#: change (e.g. new RunResult fields with behavior-affecting defaults).
#: 3: RunResult grew telemetry fields (peak_pending_events).
#: 4: HMCConfig grew the vault-scheduler policy (spec identity) and
#:    RunResult grew per-requester-class service aggregates.
CACHE_SCHEMA = 4

#: Environment variable naming a persistent cache directory, read by the
#: CLI when ``--cache`` is absent (a library ``ResultCache`` never reads it).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable capping the cache footprint in megabytes
#: (applied to both the in-memory map and the on-disk directory).
CACHE_MAX_MB_ENV = "REPRO_CACHE_MAX_MB"

_code_digest: Optional[str] = None


def cache_max_mb_from_env() -> Optional[float]:
    """Parse ``REPRO_CACHE_MAX_MB``; unset, empty, invalid, or
    non-positive values mean "no cap" (with a warning for garbage, so a
    typo never silently disables the cap a server relies on)."""
    raw = os.environ.get(CACHE_MAX_MB_ENV, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        import sys

        print(
            f"warning: ignoring invalid {CACHE_MAX_MB_ENV}={raw!r}; "
            "cache size cap disabled",
            file=sys.stderr,
        )
        return None
    return value if value > 0 else None


def code_version() -> str:
    """Digest of every ``repro`` source file, memoized per process."""
    global _code_digest
    if _code_digest is None:
        root = Path(__file__).resolve().parent.parent
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
        _code_digest = h.hexdigest()[:16]
    return _code_digest


def job_fingerprint(job: SweepJob) -> Dict[str, Any]:
    """The full identity of a job, as a JSON-serializable dict: the
    canonical system spec plus this cache's schema and the code digest.

    Analytic-tier jobs additionally carry the calibration artifact's
    content digest: refitting coefficients changes their results without
    touching any source file, so the code digest alone cannot invalidate
    them."""
    fingerprint: Dict[str, Any] = {
        "schema": CACHE_SCHEMA,
        "code": code_version(),
        "system": job.system.to_dict(),
    }
    if job.cfg.network_model == "analytic":
        from ..analytic.calibrate import calibration_digest

        fingerprint["calibration"] = calibration_digest()
    return fingerprint


def job_key(job: SweepJob) -> str:
    """Stable content hash of a job's identity, computed once per job
    object: the first call stores it on the (frozen, unslotted) job, so
    a served request's handler, dispatcher and cache share one hash.  A
    job rebuilt by ``dataclasses.replace`` is hashed again."""
    key = job.__dict__.get("_key")
    if key is None:
        payload = json.dumps(job_fingerprint(job), sort_keys=True, separators=(",", ":"))
        key = hashlib.sha256(payload.encode()).hexdigest()
        object.__setattr__(job, "_key", key)
    return key


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Entries that existed but could not be unpickled (truncated write,
    #: disk corruption, stale class layout); each was deleted and
    #: recomputed as a miss.
    corrupt: int = 0
    #: Entries dropped by the size cap's LRU eviction (never pinned ones).
    evicted: int = 0

    def add(
        self,
        hits: int = 0,
        misses: int = 0,
        stores: int = 0,
        corrupt: int = 0,
        evicted: int = 0,
    ) -> None:
        self.hits += hits
        self.misses += misses
        self.stores += stores
        self.corrupt += corrupt
        self.evicted += evicted

    def as_note(self) -> str:
        note = f"cache: {self.hits} hits, {self.misses} misses"
        if self.corrupt:
            note += f", {self.corrupt} corrupt entries dropped"
        if self.evicted:
            note += f", {self.evicted} evicted by the size cap"
        return note


#: Process-lifetime accumulator.  Instance stats vanish whenever a cache
#: object is replaced (a new CLI default, an executor rebuilt around a
#: respawned pool); this one survives them all, so the flight-recorder
#: summary can report true whole-invocation hit/miss/corrupt counts.
_PROCESS_STATS = CacheStats()


def process_cache_stats() -> CacheStats:
    """Hit/miss/store/corrupt counts accumulated across every
    :class:`ResultCache` instance this process ever created."""
    return _PROCESS_STATS


class ResultCache:
    """In-memory (and optionally on-disk) store of pickled RunResults.

    ``max_mb`` caps the footprint (memory and disk independently, same
    value); ``None`` (the default) means unbounded.  Pinned keys — see
    :meth:`pin` — are exempt from eviction, so a server can guarantee an
    in-flight job's freshly stored result is never dropped before its
    subscribers read it.
    """

    def __init__(
        self, path: Optional[str] = None, max_mb: Optional[float] = None
    ) -> None:
        self.path: Optional[Path] = Path(path) if path else None
        if self.path is not None:
            self.path.mkdir(parents=True, exist_ok=True)
        self.max_bytes: Optional[int] = (
            int(max_mb * 1024 * 1024) if max_mb and max_mb > 0 else None
        )
        # Plain dict, but insertion order doubles as LRU order: ``get``
        # re-inserts the key it touched (move-to-end), so iteration
        # starts at the coldest entry.
        self._mem: Dict[str, bytes] = {}
        #: ``sum(len(p) for p in _mem.values())``, kept up to date so the
        #: size cap costs O(1) per get and put.  A daemon's handler and
        #: dispatcher threads share the cache, so every change to the map
        #: and the total happens under one lock.
        self._mem_bytes = 0
        self._mem_lock = threading.Lock()
        self._pinned: Dict[str, int] = {}
        self.stats = CacheStats()

    def _tally(self, **counts: int) -> None:
        self.stats.add(**counts)
        _PROCESS_STATS.add(**counts)

    # -- pinning (in-flight jobs on a long-lived server) ----------------
    def pin(self, key: str) -> None:
        """Exempt ``key`` from size-cap eviction until unpinned.
        Pins are counted, so two in-flight submissions deduplicated onto
        the same key both have to finish before it becomes evictable."""
        self._pinned[key] = self._pinned.get(key, 0) + 1

    def unpin(self, key: str) -> None:
        """Drop one pin on ``key`` (missing keys are ignored)."""
        count = self._pinned.get(key, 0) - 1
        if count > 0:
            self._pinned[key] = count
        else:
            self._pinned.pop(key, None)

    def pinned(self) -> set:
        """The currently pinned keys (a copy)."""
        return set(self._pinned)

    def __len__(self) -> int:
        return len(self._mem)

    # ------------------------------------------------------------------
    def get(self, job: SweepJob) -> Optional[RunResult]:
        key = job_key(job)
        payload = self._mem.get(key)
        if payload is None and self.path is not None:
            file = self.path / f"{key}.pkl"
            try:
                payload = file.read_bytes()
            except OSError:
                payload = None  # vanished or unreadable: a plain miss
        if payload is not None:
            try:
                result = pickle.loads(payload)
            except Exception:
                # An unreadable/corrupt/truncated entry is a miss, not a
                # crash: drop it everywhere and let the sweep recompute.
                self._tally(corrupt=1)
                self._forget(key)
                if self.path is not None:
                    try:
                        (self.path / f"{key}.pkl").unlink()
                    except OSError:
                        pass
            else:
                self._remember(key, payload)
                if self.path is not None:
                    try:
                        # A hit refreshes the file's mtime, so disk LRU
                        # eviction tracks access recency, not write time.
                        os.utime(self.path / f"{key}.pkl")
                    except OSError:
                        pass
                self._evict()
                self._tally(hits=1)
                return result
        self._tally(misses=1)
        return None

    def put(self, job: SweepJob, result: RunResult) -> None:
        key = job_key(job)
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        self._remember(key, payload)
        self._tally(stores=1)
        if self.path is not None:
            # Atomic write: a crashed/concurrent run never leaves a torn file.
            fd, tmp = tempfile.mkstemp(dir=self.path, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(tmp, self.path / f"{key}.pkl")
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        self._evict()

    def _remember(self, key: str, payload: bytes) -> None:
        # Move-to-end: iteration order over _mem is LRU order.
        with self._mem_lock:
            old = self._mem.pop(key, None)
            self._mem[key] = payload
            self._mem_bytes += len(payload) - (0 if old is None else len(old))

    def _forget(self, key: str) -> None:
        with self._mem_lock:
            payload = self._mem.pop(key, None)
            if payload is not None:
                self._mem_bytes -= len(payload)

    # -- size-cap eviction ----------------------------------------------
    def _evict(self) -> None:
        """Drop LRU entries until both footprints fit ``max_bytes``.

        Memory and disk are capped independently: memory evicts in
        insertion (= access) order, disk by file mtime (refreshed on every
        hit), and an entry evicted from memory but still on disk remains
        a — slower — hit.  Pinned keys are never touched on either tier.
        """
        if self.max_bytes is None:
            return
        evicted = 0
        if self._mem_bytes > self.max_bytes:
            for key in list(self._mem):  # coldest first (insertion order)
                if self._mem_bytes <= self.max_bytes:
                    break
                if key in self._pinned:
                    continue
                self._forget(key)
                # Dropping the in-memory copy of a disk-backed entry is
                # not a loss, so it only counts as an eviction when the
                # payload existed nowhere else.
                if self.path is None or not (self.path / f"{key}.pkl").exists():
                    evicted += 1
        if self.path is not None:
            files = []
            total = 0
            for file in self.path.glob("*.pkl"):
                try:
                    stat = file.stat()
                except OSError:
                    continue  # vanished under a concurrent eviction
                files.append((stat.st_mtime, file))
                total += stat.st_size
            if total > self.max_bytes:
                for mtime, file in sorted(files):
                    if total <= self.max_bytes:
                        break
                    key = file.stem
                    if key in self._pinned:
                        continue
                    try:
                        size = file.stat().st_size
                        file.unlink()
                    except OSError:
                        continue
                    total -= size
                    self._forget(key)
                    evicted += 1
        if evicted:
            self._tally(evicted=evicted)

    def clear(self) -> None:
        with self._mem_lock:
            self._mem.clear()
            self._mem_bytes = 0
        if self.path is not None:
            for file in self.path.glob("*.pkl"):
                file.unlink()
