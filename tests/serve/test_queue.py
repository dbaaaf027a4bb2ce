"""The serve job queue: dedup, priorities, quotas, cancellation.

Pure state-machine tests — no sockets, no worker pool.  Jobs here are
tiny real SweepJobs (the queue never executes them), keyed by fake cache
keys so identity is under test control.
"""

from __future__ import annotations

import queue as _queue

import pytest

from repro.exec import SweepJob, WorkloadRef
from repro.exec.jobs import JobFailure, JobOutcome
from repro.serve.queue import CANCELLED, DONE, JobQueue, QUEUED, RUNNING
from repro.system.configs import get_spec
from repro.system.metrics import RunResult

from tests.conftest import tiny_system_config


def _job(tag: str) -> SweepJob:
    return SweepJob.make(
        get_spec("GMN"), WorkloadRef("KMN", 0.1), tiny_system_config(), tag=tag
    )


def _ok_outcome() -> JobOutcome:
    return JobOutcome(result=RunResult(workload="KMN", arch="GMN"))


def _failed_outcome(label: str) -> JobOutcome:
    return JobOutcome(
        failure=JobFailure(
            label=label, exc_type="Boom", message="x", traceback=""
        )
    )


def test_fifo_within_priority():
    q = JobQueue(quota=4)
    for i in range(3):
        q.submit(_job(f"j{i}"), f"k{i}", "c", 0, f"r{i}")
    order = [q.acquire_next(0).label for _ in range(3)]
    assert order == ["j0", "j1", "j2"]


def test_lower_priority_value_dispatches_first():
    q = JobQueue(quota=4)
    q.submit(_job("later"), "k1", "c", 5, "r1")
    q.submit(_job("urgent"), "k2", "c", -1, "r2")
    q.submit(_job("normal"), "k3", "c", 0, "r3")
    order = [q.acquire_next(0).label for _ in range(3)]
    assert order == ["urgent", "normal", "later"]


def test_dedup_attaches_second_subscriber_to_one_entry():
    q = JobQueue()
    ev1: _queue.Queue = _queue.Queue()
    ev2: _queue.Queue = _queue.Queue()
    e1, dedup1 = q.submit(_job("a"), "samekey", "alice", 0, "r1", ev1)
    e2, dedup2 = q.submit(_job("a"), "samekey", "bob", 0, "r2", ev2)
    assert e1 is e2
    assert not dedup1 and dedup2
    assert len(e1.subscriptions) == 2
    # One dispatch serves both.
    entry = q.acquire_next(0)
    assert entry is e1
    assert q.acquire_next(0.01) is None  # nothing else queued
    q.finish(entry, _ok_outcome(), {"event": "completed", "label": "a"})
    for ev, rid in ((ev1, "r1"), (ev2, "r2")):
        event = ev.get_nowait()
        assert event["event"] == "completed"
        assert event["request_id"] == rid  # stamped per subscription


def test_dedup_attaches_to_running_entry_too():
    q = JobQueue()
    q.submit(_job("a"), "k", "alice", 0, "r1")
    entry = q.acquire_next(0)
    assert entry.state == RUNNING
    late, dedup = q.submit(_job("a"), "k", "bob", 0, "r2")
    assert dedup and late is entry


def test_dedup_priority_upgrade():
    q = JobQueue(quota=4)
    q.submit(_job("slow"), "k1", "c", 5, "r1")
    q.submit(_job("other"), "k2", "c", 2, "r2")
    # A second submitter of k1 at priority 0 boosts the shared entry.
    q.submit(_job("slow"), "k1", "c", 0, "r3")
    assert q.acquire_next(0).key == "k1"


def test_quota_backpressure_queues_rather_than_rejects():
    q = JobQueue(quota=1)
    q.submit(_job("a"), "ka", "alice", 0, "r1")
    q.submit(_job("b"), "kb", "alice", 0, "r2")
    first = q.acquire_next(0)
    assert first.label == "a"
    # alice is at quota: her second job is held, not dropped.
    assert q.acquire_next(0.01) is None
    assert q.counts()["queued"] == 1
    q.finish(first, _ok_outcome())
    second = q.acquire_next(0)
    assert second is not None and second.label == "b"


def test_quota_is_per_client():
    q = JobQueue(quota=1)
    q.submit(_job("a1"), "ka1", "alice", 0, "r1")
    q.submit(_job("a2"), "ka2", "alice", 0, "r2")
    q.submit(_job("b1"), "kb1", "bob", 0, "r3")
    got = {q.acquire_next(0).label, q.acquire_next(0).label}
    assert got == {"a1", "b1"}  # bob is not blocked by alice's quota


def test_dedup_counts_against_first_submitter_only():
    q = JobQueue(quota=1)
    q.submit(_job("x"), "kx", "alice", 0, "r1")
    q.submit(_job("x"), "kx", "bob", 0, "r2")  # dedup onto alice's entry
    q.submit(_job("y"), "ky", "bob", 0, "r3")
    running = q.acquire_next(0)
    assert running.key == "kx" and running.owner == "alice"
    # bob's own quota is untouched by the dedup — his job dispatches.
    assert q.acquire_next(0).key == "ky"


def test_cancel_queued_last_subscriber_drops_entry():
    q = JobQueue()
    ev: _queue.Queue = _queue.Queue()
    q.submit(_job("a"), "k", "alice", 0, "r1", ev)
    dropped, orphaned, shared = q.cancel_request("r1")
    assert [e.key for e in dropped] == ["k"]
    assert not orphaned and not shared
    assert dropped[0].state == CANCELLED
    assert q.counts()["queued"] == 0
    # The waiter still gets a terminal event — it can never hang.
    assert ev.get_nowait()["event"] == "cancelled"


def test_cancel_with_remaining_subscriber_keeps_entry():
    q = JobQueue()
    ev1: _queue.Queue = _queue.Queue()
    ev2: _queue.Queue = _queue.Queue()
    q.submit(_job("a"), "k", "alice", 0, "r1", ev1)
    entry, _ = q.submit(_job("a"), "k", "bob", 0, "r2", ev2)
    dropped, orphaned, shared = q.cancel_request("r1")
    assert not dropped and not orphaned and [e.key for e in shared] == ["k"]
    assert entry.state == QUEUED and len(entry.subscriptions) == 1
    assert ev1.get_nowait()["event"] == "cancelled"  # alice's terminal
    assert ev2.empty()  # bob is unaffected
    # bob's computation still dispatches and completes normally.
    got = q.acquire_next(0)
    assert got is entry
    q.finish(got, _ok_outcome(), {"event": "completed"})
    assert ev2.get_nowait()["event"] == "completed"


def test_cancel_running_entry_is_orphaned_not_killed():
    q = JobQueue()
    q.submit(_job("a"), "k", "alice", 0, "r1")
    entry = q.acquire_next(0)
    dropped, orphaned, shared = q.cancel_request("r1")
    assert not dropped and not shared and orphaned == [entry]
    # Still running: the queue leaves salvage to the server.
    assert entry.state == RUNNING and q.counts()["running"] == 1
    q.finish(entry, _ok_outcome())
    assert entry.state == DONE  # landed; its result is salvageable


def test_finish_failed_outcome_marks_failed():
    q = JobQueue()
    q.submit(_job("a"), "k", "c", 0, "r1")
    entry = q.acquire_next(0)
    q.finish(entry, _failed_outcome("a"))
    assert entry.state == "failed"
    assert q.counts()["failed"] == 1


def test_finish_frees_key_for_resubmission():
    q = JobQueue()
    q.submit(_job("a"), "k", "c", 0, "r1")
    entry = q.acquire_next(0)
    q.finish(entry, _ok_outcome())
    fresh, dedup = q.submit(_job("a"), "k", "c", 0, "r2")
    assert not dedup and fresh is not entry  # no dedup onto finished work


def test_close_wakes_consumer_and_rejects_submits():
    q = JobQueue()
    q.close()
    assert q.acquire_next(None) is None  # returns instead of blocking
    with pytest.raises(RuntimeError):
        q.submit(_job("a"), "k", "c", 0, "r1")


def test_quota_validation():
    with pytest.raises(ValueError):
        JobQueue(quota=0)


def test_status_snapshot_shape():
    q = JobQueue(quota=2)
    q.submit(_job("a"), "ka", "alice", 0, "r1")
    q.submit(_job("b"), "kb", "alice", 0, "r2")
    q.acquire_next(0)
    status = q.status()
    assert status["quota"] == 2
    assert [e["state"] for e in status["running"]] == ["running"]
    assert [e["state"] for e in status["queued"]] == ["queued"]
    assert status["active_per_client"] == {"alice": 1}
