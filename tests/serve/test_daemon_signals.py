"""A `repro serve` daemon stops cleanly on SIGINT, however it arrives.

A non-interactive shell starts a `cmd &` child with SIGINT ignored, and
Python then installs no KeyboardInterrupt handler.  The daemon installs
its own, so `kill -INT` takes the same path as Ctrl-C and SIGTERM: drain,
kill the pool, remove the socket, exit 0.  Ctrl-C at a terminal signals
the whole process group, workers included; they ignore it, so a running
job still drains into the cache.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.serve.client import ServeClient
from repro.serve.protocol import ServeAddress

from tests.serve.test_server import _slow_spec

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="needs /proc to find worker processes"
)


def _children(pid: int) -> list:
    """Live processes whose parent is ``pid``."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited meanwhile
        if int(fields[1]) == pid:
            kids.append(int(entry))
    return kids


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _ignore_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _run_daemon(tmp_path, signal_it, drain_s, *args, **popen):
    """Start `repro serve`, wait for its pong, call ``signal_it(daemon,
    client)``, and check it exits 0 within the drain bound with its
    socket removed and no worker left.  Returns the daemon's stderr."""
    sock = str(tmp_path / "repro.sock")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(REPO_ROOT, "src"), REPO_ROOT]))
    workers = []
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock,
         "--jobs", "1", "--drain-s", str(drain_s), *args],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
        **popen,
    )
    try:
        client = ServeClient(ServeAddress(socket_path=sock), timeout=30.0)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                assert client.ping()["pid"] == daemon.pid
                break
            except OSError:
                assert daemon.poll() is None, daemon.stderr.read()
                assert time.monotonic() < deadline, "daemon never came up"
                time.sleep(0.1)
        workers = _children(daemon.pid)
        assert workers, "the daemon warms its pool before it answers"

        signal_it(daemon, client)
        try:
            _, stderr = daemon.communicate(timeout=drain_s + 10.0)
        except subprocess.TimeoutExpired:
            pytest.fail("daemon outlived SIGINT")
        assert daemon.returncode == 0, stderr
        assert "shutting down" in stderr
        assert not os.path.exists(sock)
        deadline = time.monotonic() + 10.0
        while any(_alive(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not [pid for pid in workers if _alive(pid)], "orphaned workers"
        return stderr
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)


def test_sigint_stops_a_daemon_that_inherited_it_ignored(tmp_path):
    def interrupt(daemon, client):
        daemon.send_signal(signal.SIGINT)

    _run_daemon(tmp_path, interrupt, 1.0, preexec_fn=_ignore_sigint)


def test_ctrl_c_to_the_process_group_drains_the_running_job(tmp_path):
    cache = tmp_path / "cache"

    def ctrl_c(daemon, client):
        events = list(client.submit([_slow_spec(delay_s=1.0, salt=11)], wait=False))
        assert events[0]["jobs"][0]["state"] == "queued"
        deadline = time.monotonic() + 10.0
        while client.status()["counts"]["running"] != 1:
            assert time.monotonic() < deadline, "the job never started"
            time.sleep(0.05)
        os.killpg(daemon.pid, signal.SIGINT)

    stderr = _run_daemon(
        tmp_path, ctrl_c, 5.0, "--cache", str(cache), start_new_session=True
    )
    assert "Traceback" not in stderr
    assert len(list(cache.glob("*.pkl"))) == 1  # salvaged by the drain
