"""Size-capped cache: LRU eviction, pinning, and the env knob.

The cap exists for ``repro serve``: a daemon accretes results forever,
so without eviction the in-memory map and the cache directory grow
without bound.  These tests size the cap in units of one pickled
payload, measured — not guessed — so they stay valid when RunResult
grows fields.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import SweepJob, WorkloadRef
from repro.exec.cache import (
    CACHE_MAX_MB_ENV,
    ResultCache,
    cache_max_mb_from_env,
    job_key,
)
from repro.system.configs import get_spec
from repro.system.metrics import RunResult

from tests.conftest import tiny_system_config


def _job(i: int) -> SweepJob:
    # scale perturbs the cache key only; the result is never computed.
    return SweepJob.make(
        get_spec("GMN"),
        WorkloadRef("KMN", 0.1 + i),
        tiny_system_config(),
        tag=f"p{i}",
    )


def _result(i: int) -> RunResult:
    return RunResult(workload="KMN", arch="GMN", total_ps=i)


def _payload_mb() -> float:
    """The footprint of one cached entry, in MB, measured."""
    blob = pickle.dumps(_result(0), protocol=pickle.HIGHEST_PROTOCOL)
    return len(blob) / (1024 * 1024)


def _cap_for(n_payloads: float) -> float:
    return _payload_mb() * n_payloads


# ---------------------------------------------------------------------------
# The environment knob
# ---------------------------------------------------------------------------
def test_env_cap_parsing(monkeypatch, capsys):
    monkeypatch.delenv(CACHE_MAX_MB_ENV, raising=False)
    assert cache_max_mb_from_env() is None
    monkeypatch.setenv(CACHE_MAX_MB_ENV, "256")
    assert cache_max_mb_from_env() == 256.0
    monkeypatch.setenv(CACHE_MAX_MB_ENV, "  12.5 ")
    assert cache_max_mb_from_env() == 12.5
    monkeypatch.setenv(CACHE_MAX_MB_ENV, "0")
    assert cache_max_mb_from_env() is None  # non-positive = no cap
    monkeypatch.setenv(CACHE_MAX_MB_ENV, "-3")
    assert cache_max_mb_from_env() is None
    monkeypatch.setenv(CACHE_MAX_MB_ENV, "lots")
    assert cache_max_mb_from_env() is None  # garbage = no cap, but loudly
    assert "ignoring invalid" in capsys.readouterr().err


def test_uncapped_cache_never_evicts():
    cache = ResultCache()
    for i in range(16):
        cache.put(_job(i), _result(i))
    assert len(cache) == 16 and cache.stats.evicted == 0


# ---------------------------------------------------------------------------
# In-memory LRU
# ---------------------------------------------------------------------------
def test_memory_eviction_is_lru():
    cache = ResultCache(max_mb=_cap_for(2.5))
    jobs = [_job(i) for i in range(3)]
    cache.put(jobs[0], _result(0))
    cache.put(jobs[1], _result(1))
    # Touch job 0 so job 1 becomes the coldest entry.
    assert cache.get(jobs[0]) is not None
    cache.put(jobs[2], _result(2))  # pushes past the cap
    assert cache.get(jobs[1]) is None  # the untouched one was evicted
    assert cache.get(jobs[0]) is not None
    assert cache.get(jobs[2]) is not None
    assert cache.stats.evicted >= 1


def test_pinned_entries_survive_eviction():
    cache = ResultCache(max_mb=_cap_for(1.5))
    pinned, victim = _job(0), _job(1)
    cache.put(pinned, _result(0))
    cache.pin(job_key(pinned))
    cache.put(victim, _result(1))  # over cap; only the victim is evictable
    assert cache.get(pinned) is not None
    # After unpinning, the formerly protected entry is fair game again.
    cache.unpin(job_key(pinned))
    cache.put(_job(2), _result(2))
    assert cache.get(pinned) is None


def test_pins_are_counted():
    cache = ResultCache(max_mb=_cap_for(1.5))
    job = _job(0)
    key = job_key(job)
    cache.put(job, _result(0))
    cache.pin(key)
    cache.pin(key)  # a second in-flight request deduplicated onto it
    cache.unpin(key)
    cache.put(_job(1), _result(1))
    assert cache.get(job) is not None  # one pin still holds it
    cache.unpin(key)
    assert cache.pinned() == set()
    cache.put(_job(2), _result(2))
    assert cache.get(job) is None  # fully unpinned: evictable


def test_unpin_unknown_key_is_harmless():
    cache = ResultCache()
    cache.unpin("nonexistent")
    assert cache.pinned() == set()


# ---------------------------------------------------------------------------
# On-disk LRU
# ---------------------------------------------------------------------------
def test_disk_eviction_drops_oldest_mtime(tmp_path):
    cache = ResultCache(str(tmp_path), max_mb=_cap_for(2.5))
    jobs = [_job(i) for i in range(3)]
    for i, job in enumerate(jobs[:2]):
        cache.put(job, _result(i))
    # Backdate job 0's file so it is unambiguously the disk-coldest.
    old = time.time() - 3600
    os.utime(tmp_path / f"{job_key(jobs[0])}.pkl", (old, old))
    cache.put(jobs[2], _result(2))
    remaining = {p.stem for p in tmp_path.glob("*.pkl")}
    assert job_key(jobs[0]) not in remaining
    assert {job_key(jobs[1]), job_key(jobs[2])} <= remaining


def test_hit_refreshes_disk_mtime(tmp_path):
    cache = ResultCache(str(tmp_path), max_mb=_cap_for(2.5))
    jobs = [_job(i) for i in range(3)]
    for i, job in enumerate(jobs[:2]):
        cache.put(job, _result(i))
    # Backdate both, then hit job 0: the hit must rescue it from LRU.
    old = time.time() - 3600
    for job in jobs[:2]:
        os.utime(tmp_path / f"{job_key(job)}.pkl", (old, old))
    assert cache.get(jobs[0]) is not None
    cache.put(jobs[2], _result(2))
    remaining = {p.stem for p in tmp_path.glob("*.pkl")}
    assert job_key(jobs[0]) in remaining  # recently hit: survived
    assert job_key(jobs[1]) not in remaining  # untouched: evicted


def test_mem_evicted_disk_backed_entry_still_hits(tmp_path):
    """Dropping only the in-memory copy of a persisted entry is not a
    loss — the next get falls through to disk — so it is not counted."""
    cache = ResultCache(str(tmp_path), max_mb=_cap_for(1.5))
    jobs = [_job(i) for i in range(2)]
    cache.put(jobs[0], _result(0))
    # Pin on *disk* only makes no sense; instead keep disk under cap by
    # backdating nothing — two entries exceed 1.5 payloads on both tiers,
    # so disk evicts the older file while memory evicts the older key.
    cache.put(jobs[1], _result(1))
    # Exactly one entry survives on each tier, and it still hits.
    assert len(list(tmp_path.glob("*.pkl"))) == 1
    survivors = [j for j in jobs if cache.get(j) is not None]
    assert len(survivors) == 1


def test_disk_eviction_respects_pins(tmp_path):
    cache = ResultCache(str(tmp_path), max_mb=_cap_for(1.5))
    pinned = _job(0)
    cache.put(pinned, _result(0))
    cache.pin(job_key(pinned))
    old = time.time() - 3600
    os.utime(tmp_path / f"{job_key(pinned)}.pkl", (old, old))
    cache.put(_job(1), _result(1))  # would evict the oldest — but it's pinned
    assert (tmp_path / f"{job_key(pinned)}.pkl").exists()
    assert cache.get(pinned) is not None


def test_eviction_counts_in_stats():
    cache = ResultCache(max_mb=_cap_for(1.5))
    cache.put(_job(0), _result(0))
    cache.put(_job(1), _result(1))
    assert cache.stats.evicted == 1
    assert "evicted by the size cap" in cache.stats.as_note()


# ---------------------------------------------------------------------------
# The running byte total
# ---------------------------------------------------------------------------
def _corrupt(cache: ResultCache, job: SweepJob) -> None:
    """Overwrite ``job``'s entry with garbage of the same length, in
    memory and on disk, and read it back: the get drops it as corrupt."""
    key = job_key(job)
    if key in cache._mem:
        cache._mem[key] = b"\0" * len(cache._mem[key])
    file = cache.path / f"{key}.pkl" if cache.path is not None else None
    if file is not None and file.exists():
        file.write_bytes(b"\0" * file.stat().st_size)
    assert cache.get(job) is None


OPS = st.lists(
    st.tuples(st.sampled_from(["put", "get", "corrupt", "clear"]), st.integers(0, 2)),
    max_size=30,
)


@settings(max_examples=100, deadline=None)
@given(ops=OPS, on_disk=st.booleans(), cap=st.sampled_from([None, 1.5, 2.5, 4.5]))
def test_running_total_matches_memory_payloads(ops, on_disk, cap):
    """Whatever mix of puts, hits, misses, corrupt drops, evictions and
    clears runs, the cache's running total is the sum of the in-memory
    payload sizes that the size cap compares against."""
    jobs = [_job(i) for i in range(3)]
    # Results of different pickled sizes, so a miscounted entry shows.
    results = [RunResult(workload="KMN", arch="GMN", total_ps=7 ** (9 * i)) for i in range(3)]
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp if on_disk else None, max_mb=cap and _cap_for(cap))
        for op, i in ops:
            if op == "put":
                cache.put(jobs[i], results[i])
            elif op == "get":
                cache.get(jobs[i])
            elif op == "corrupt":
                _corrupt(cache, jobs[i])
            else:
                cache.clear()
            assert cache._mem_bytes == sum(len(p) for p in cache._mem.values())
            if cap is not None:
                assert cache._mem_bytes <= cache.max_bytes
