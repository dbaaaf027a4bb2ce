"""Every run is a pure function of its spec, with no process-global state.

A CLI invocation leaves nothing behind for the next sweep in the same
process, and runs or whole experiments executing at once in threads each
get their serial rows: packet ids are numbered per network, and the run
settings live on each executor.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cli import main
from repro.exec import SweepExecutor, execute_job, job_for
from repro.experiments import fig14_organizations
from repro.experiments.fig16_fig17_topologies import TOPOLOGIES
from repro.system.configs import get_spec


@pytest.fixture
def fast_switching():
    """Threads hand over the interpreter far more often than by default,
    so runs sharing any state would interleave inside each other."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def test_cli_leaves_no_state_behind(monkeypatch, capsys):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    argv = ["fig12", "--fidelity", "analytic", "--keep-going", "--jobs", "2",
            "--max-events", "5000"]
    assert main(argv) == 0

    job = job_for("UMN", "CP", scale=0.01)
    assert job.cfg.network_model == "packet"
    assert job.cfg.hmc.scheduler == "frfcfs"
    assert job.cfg.watchdog_max_events is None

    used = []
    map_outcomes = SweepExecutor.map_outcomes

    def spy(self, jobs):
        used.append(self)
        return map_outcomes(self, jobs)

    monkeypatch.setattr(SweepExecutor, "map_outcomes", spy)
    fig14_organizations.run(scale=0.01, workloads=["VEC"])
    (executor,) = used
    assert executor.jobs == 1 and executor.keep_going is False
    assert executor.fidelity is None and executor.max_events is None


def test_threads_running_points_at_once_get_their_serial_rows(fast_switching):
    # Equal-length routes are picked by packet id: on sTORUS a shared id
    # counter let concurrent runs perturb each other's routes.
    jobs = [
        job_for(get_spec("GMN").with_(topology=topology), "KMN", scale=0.1)
        for topology in TOPOLOGIES
    ]
    serial = [execute_job(job).result.as_row() for job in jobs]
    with ThreadPoolExecutor(max_workers=3) as threads:
        outcomes = threads.map(execute_job, jobs, timeout=300)
        threaded = [o.result.as_row() for o in outcomes]
    assert threaded == serial


def test_two_experiments_at_once_get_their_serial_rows(fast_switching):
    def rows(fidelity):
        executor = SweepExecutor(jobs=1, fidelity=fidelity)
        return fig14_organizations.run(
            scale=0.05, workloads=("VEC", "BP"), executor=executor
        ).rows

    serial = {fidelity: rows(fidelity) for fidelity in ("analytic", "packet")}
    assert serial["analytic"] != serial["packet"]
    with ThreadPoolExecutor(max_workers=2) as threads:
        futures = {f: threads.submit(rows, f) for f in serial}
        assert {f: fut.result(timeout=300) for f, fut in futures.items()} == serial
