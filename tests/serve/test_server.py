"""End-to-end daemon tests: real Unix socket, real worker pool.

Each test boots a :class:`SweepServer` on a tmp-dir socket and talks to
it through :class:`ServeClient` — the exact path ``repro submit`` takes.
Slow jobs come from the ``tests.serve.slowwl:make_slow`` factory, whose
build-time sleep widens the in-flight window enough to exercise dedup,
backpressure, and cancellation deterministically.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro.exec import SweepJob, WorkloadRef
from repro.exec.cache import ResultCache
from repro.exec.executor import _POOL
from repro.serve.client import ServeClient
from repro.serve.protocol import ServeAddress
from repro.serve.server import SweepServer
from repro.system.configs import get_spec

from tests.conftest import tiny_system_config


def _slow_spec(delay_s: float = 0.0, salt: int = 0):
    """One canonical spec dict for a pool-executed (packet-model) job;
    ``salt`` mints a distinct cache key at identical cost."""
    job = SweepJob.make(
        get_spec("GMN"),
        WorkloadRef(
            "slow",
            factory="tests.serve.slowwl:make_slow",
            kwargs=(("delay_s", delay_s), ("salt", salt)),
        ),
        tiny_system_config(num_gpus=2, num_sms=2),
        tag=f"slow{salt}",
    )
    return job.system.to_dict()


def _analytic_spec():
    """One canonical spec dict for an analytic job (run inline)."""
    cfg = tiny_system_config(num_gpus=2, num_sms=2).scaled(network_model="analytic")
    job = SweepJob.make(get_spec("GMN"), WorkloadRef("BP", 0.1), cfg)
    return job.system.to_dict()


def _kill_spec(sentinel=None):
    """A job whose build kills its worker: once (with a sentinel path)
    or every time."""
    kwargs = (("sentinel", str(sentinel)),) if sentinel else ()
    job = SweepJob.make(
        get_spec("GMN"),
        WorkloadRef(
            "killworker",
            factory="repro.workloads.diagnostics:make_kill_worker",
            kwargs=kwargs,
        ),
        tiny_system_config(num_gpus=2, num_sms=2),
        tag="kill",
    )
    return job.system.to_dict()


def _wait_for(predicate, timeout=10.0, interval=0.02, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {what}")


@pytest.fixture
def make_server(tmp_path):
    servers = []

    def _make(
        quota: int = 2, jobs: int = 1, drain_s: float = 3.0, pool_retries: int = 2
    ):
        address = ServeAddress(
            socket_path=str(tmp_path / f"serve{len(servers)}.sock")
        )
        server = SweepServer(
            address,
            cache=ResultCache(),
            jobs=jobs,
            quota=quota,
            pool_retries=pool_retries,
            drain_s=drain_s,
        )
        server.start()
        servers.append(server)
        return server

    yield _make
    for server in servers:
        server.stop()
        if server._serve_thread is not None:
            server._serve_thread.join(timeout=10.0)


def _client(server: SweepServer) -> ServeClient:
    return ServeClient(server.address, timeout=30.0)


# ---------------------------------------------------------------------------
def test_ping_and_status(make_server):
    server = make_server()
    client = _client(server)
    pong = client.ping()
    assert pong["event"] == "pong" and pong["pid"] > 0
    status = client.status()
    assert status["event"] == "status"
    assert status["queue"]["quota"] == 2
    assert status["counts"]["running"] == 0
    assert "flight" in status and status["pinned"] == 0


def test_error_events_for_bad_requests(make_server):
    server = make_server()
    client = _client(server)
    bad_op = client.request_one({"op": "frobnicate"})
    assert bad_op["event"] == "error" and "unknown op" in bad_op["message"]
    bad_spec = list(
        client.request(
            {"op": "submit", "specs": [{"bogus": 1}], "wait": True},
            stop_events=("end", "error"),
        )
    )
    assert bad_spec[-1]["event"] == "error"
    assert "spec 0" in bad_spec[-1]["message"]


def test_submit_computes_then_serves_from_cache(make_server):
    """Satellite: a cache hit answers immediately, bypassing the pool."""
    server = make_server()
    client = _client(server)
    spec = _slow_spec(delay_s=0.6)

    t0 = time.monotonic()
    first = list(client.submit([spec], client="alice"))
    first_s = time.monotonic() - t0
    kinds = [e["event"] for e in first]
    assert kinds[0] == "accepted" and kinds[-1] == "end"
    assert "completed" in kinds
    completed = next(e for e in first if e["event"] == "completed")
    assert completed["source"] == "run" and completed["row"]["arch"] == "GMN"
    assert first[-1]["completed"] == 1 and first[-1]["failed"] == 0
    assert server.cache.stats.stores == 1

    t0 = time.monotonic()
    second = list(client.submit([spec], client="bob"))
    second_s = time.monotonic() - t0
    accepted = second[0]
    assert accepted["jobs"][0]["state"] == "cached"
    assert accepted["pending"] == 0  # nothing queued: the pool is bypassed
    hit = next(e for e in second if e["event"] == "completed")
    assert hit["source"] == "cache"
    assert hit["row"] == completed["row"]  # byte-identical result
    assert server.cache.stats.stores == 1  # cached answers are not re-stored
    # The slow build ran once; the hit skips it entirely.
    assert second_s < first_s / 2
    # Every pin taken at submit time has been released.
    assert len(server.cache.pinned()) == 0


def test_each_submission_fingerprints_its_job_once(make_server, monkeypatch):
    """The submit handler, the dispatcher's lookups and the cache's store
    share one key per job: a fresh packet point, a fresh analytic point
    and a cache hit each build the job's fingerprint exactly once."""
    from repro.exec import cache as cache_module

    calls = []
    fingerprint = cache_module.job_fingerprint

    def counting(job):
        calls.append(job.label)
        return fingerprint(job)

    monkeypatch.setattr(cache_module, "job_fingerprint", counting)
    server = make_server()
    client = _client(server)
    analytic = _analytic_spec()
    for spec, state, source in (
        (_slow_spec(salt=7), "queued", "run"),
        (analytic, "queued", "analytic"),
        (analytic, "cached", "cache"),
    ):
        calls.clear()
        events = list(client.submit([spec], client="alice"))
        assert events[0]["jobs"][0]["state"] == state
        completed = next(e for e in events if e["event"] == "completed")
        assert completed["source"] == source
        assert events[-1]["event"] == "end"
        assert len(calls) == 1, calls
    assert server.cache.stats.stores == 2


def test_dedup_one_computation_two_subscribers(make_server):
    """Satellite: identical in-flight submissions share one computation."""
    server = make_server(quota=2)
    spec = _slow_spec(delay_s=1.5, salt=1)

    alice_events = []

    def _alice():
        alice_events.extend(
            _client(server).submit([spec], client="alice")
        )

    alice = threading.Thread(target=_alice, daemon=True)
    alice.start()
    _wait_for(
        lambda: server.queue.counts()["running"] == 1,
        what="alice's job to start running",
    )
    bob_events = list(_client(server).submit([spec], client="bob"))
    alice.join(timeout=30.0)
    assert not alice.is_alive()

    # Bob attached to alice's in-flight entry instead of enqueueing.
    assert bob_events[0]["jobs"][0]["state"] == "dedup"
    for events in (alice_events, bob_events):
        completed = next(e for e in events if e["event"] == "completed")
        assert completed["source"] == "run"
        assert events[-1]["event"] == "end" and events[-1]["completed"] == 1
    # One computation: one store, one "run" telemetry record.
    assert server.cache.stats.stores == 1
    assert sum(1 for t in server.telemetry if t.source == "run") == 1
    assert len(server.cache.pinned()) == 0


def test_quota_backpressure_queues_not_rejects(make_server):
    """Satellite: over-quota submissions wait their turn, always accepted."""
    server = make_server(quota=1)
    client = _client(server)
    specs = [_slow_spec(delay_s=0.8, salt=2), _slow_spec(delay_s=0.8, salt=3)]
    events = list(client.submit(specs, client="alice", wait=False))
    assert events[0]["event"] == "accepted" and events[0]["pending"] == 2
    assert [j["state"] for j in events[0]["jobs"]] == ["queued", "queued"]

    # While the first runs, the second is held queued by alice's quota.
    _wait_for(
        lambda: server.queue.counts()["running"] == 1,
        what="first job to start",
    )
    status = _client(server).status()
    assert status["counts"]["running"] == 1
    assert status["counts"]["queued"] == 1
    assert status["queue"]["active_per_client"] == {"alice": 1}

    # Backpressure, not rejection: both eventually complete.
    _wait_for(
        lambda: server.queue.counts()["done"] == 2,
        timeout=30.0,
        what="both jobs to finish",
    )
    assert server.cache.stats.stores == 2
    assert len(server.cache.pinned()) == 0


def test_cancel_salvages_running_point(make_server):
    """Satellite: cancelling drops queued points but the running one
    finishes and its result lands in the cache."""
    server = make_server(quota=1)
    client = _client(server)
    running_spec = _slow_spec(delay_s=1.2, salt=4)
    queued_spec = _slow_spec(delay_s=0.0, salt=5)
    events = list(
        client.submit([running_spec, queued_spec], client="alice", wait=False)
    )
    request_id = events[0]["request_id"]

    # Wait until the first point is genuinely on a worker, so the cancel
    # cannot pull it back from the pool queue.
    def _first_on_worker():
        running = server.queue.running()
        return bool(
            running
            and running[0].future is not None
            and running[0].future.running()
        )

    _wait_for(_first_on_worker, what="first job to reach a worker")

    reply = _client(server).cancel(request_id)
    assert reply["event"] == "cancelled"
    assert reply["dropped"] == 1  # the queued point is gone
    assert reply["salvaging"] == 1  # the running one is left to finish
    assert reply["pulled_back"] == 0

    # Salvage: the orphaned computation still lands in the cache.
    _wait_for(
        lambda: server.cache.stats.stores >= 1,
        timeout=30.0,
        what="orphaned result to land in the cache",
    )
    assert len(server.cache.pinned()) == 0

    # Proof it was salvaged: resubmitting answers from cache instantly.
    resubmit = list(_client(server).submit([running_spec], client="bob"))
    assert resubmit[0]["jobs"][0]["state"] == "cached"
    hit = next(e for e in resubmit if e["event"] == "completed")
    assert hit["source"] == "cache"


def test_shutdown_op_stops_cleanly_with_no_orphans(make_server, tmp_path):
    server = make_server()
    client = _client(server)
    # Prove the pool is warm (workers exist) before shutdown.
    spec = _slow_spec(delay_s=0.0, salt=6)
    done = list(client.submit([spec], client="alice"))
    assert done[-1]["event"] == "end" and done[-1]["completed"] == 1

    reply = client.shutdown()
    assert reply["event"] == "stopping"
    server._serve_thread.join(timeout=10.0)
    assert not server._serve_thread.is_alive()

    import os

    assert not os.path.exists(server.address.socket_path)
    assert _POOL._pool is None  # the warm pool was torn down
    _wait_for(
        lambda: not multiprocessing.active_children(),
        what="worker processes to exit",
    )


def test_pool_death_is_retried_then_completes(make_server, tmp_path):
    server = make_server()
    sentinel = tmp_path / "killed-once"
    events = list(_client(server).submit([_kill_spec(sentinel)], client="alice"))
    kinds = [e["event"] for e in events]
    assert sentinel.exists()
    assert kinds.count("retried") == 1
    assert kinds.index("retried") < kinds.index("completed")
    completed = next(e for e in events if e["event"] == "completed")
    assert completed["retries"] == 1 and completed["source"] == "run"
    assert kinds[-1] == "end" and events[-1]["completed"] == 1
    assert len(server.cache.pinned()) == 0


def test_pool_death_beyond_retries_fails_the_job(make_server):
    server = make_server(pool_retries=1)
    events = list(_client(server).submit([_kill_spec()], client="alice"))
    kinds = [e["event"] for e in events]
    assert kinds.count("retried") == 1
    failed = next(e for e in events if e["event"] == "failed")
    assert failed["exc_type"] == "BrokenExecutor"
    assert "worker pool died" in failed["message"]
    assert kinds[-1] == "end" and events[-1]["failed"] == 1
    assert len(server.cache.pinned()) == 0


@pytest.mark.parametrize("exc_type", [RuntimeError, ValueError])
def test_failure_after_acceptance_ends_with_error_event(
    make_server, monkeypatch, tmp_path, capsys, exc_type
):
    """A submit handler that raises once the request was accepted still
    ends the stream with one terminal ``error`` event, logs the traceback,
    and ``repro submit`` exits non-zero."""
    import json

    from repro.cli import main
    from repro.serve import server as server_module

    real_write = server_module.write_message

    def write_then_fail(stream, message):
        real_write(stream, message)
        if message.get("event") == "accepted":
            raise exc_type("injected failure after acceptance")

    monkeypatch.setattr(server_module, "write_message", write_then_fail)
    server = make_server()
    spec = _slow_spec()

    events = list(_client(server).submit([spec], client="alice"))
    kinds = [e["event"] for e in events]
    assert kinds == ["accepted", "error"], events
    assert "injected failure after acceptance" in events[-1]["message"]
    err = capsys.readouterr().err
    assert "Traceback" in err and "injected failure after acceptance" in err

    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    code = main(
        ["submit", str(spec_file), "--socket", server.address.socket_path]
    )
    assert code != 0
    out = capsys.readouterr().out.splitlines()
    assert json.loads(out[-1])["event"] == "error"
