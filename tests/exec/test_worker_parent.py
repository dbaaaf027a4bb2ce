"""Pool workers end with the process that owns their pool.

A worker holds both ends of its pool's pipes, so when the owner dies
without a shutdown (SIGKILL, a crash) no EOF ever reaches it.  The worker
initializer's parent watch must end it anyway.
"""

import os
import signal
import subprocess
import sys
import time

OWNER = """
import os, time
from concurrent.futures import ProcessPoolExecutor
from repro.exec.jobs import _worker_initializer

pool = ProcessPoolExecutor(max_workers=2, initializer=_worker_initializer)
pool.submit(os.getpid).result()
print(" ".join(str(pid) for pid in pool._processes), flush=True)
time.sleep(60)
"""


def running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


def test_workers_exit_when_their_pool_owner_is_killed():
    owner = subprocess.Popen(
        [sys.executable, "-c", OWNER], stdout=subprocess.PIPE, text=True
    )
    workers = []
    try:
        workers = [int(pid) for pid in owner.stdout.readline().split()]
        assert len(workers) == 2
        os.kill(owner.pid, signal.SIGKILL)
        owner.wait(timeout=5)
        deadline = time.monotonic() + 5.0
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if running(pid)]
    finally:
        owner.kill()
        owner.wait()
        for pid in workers:
            if running(pid):
                os.kill(pid, signal.SIGKILL)
