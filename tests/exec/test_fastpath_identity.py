"""The fast-path correctness bar: memoized route tables and bucketed
FR-FCFS change nothing.

Every experiment below is pinned to committed reference rows under
``tests/data/sched_reference`` — across organizations (fig14, which
includes the UMN pass-through overlay), data distributions (fig07),
topologies (fig16), and adaptive routing (GMN and UMN with UGAL).  Each is
run twice: as shipped, and with the vaults' FR-FCFS swapped for the flat
reference scan of ``tests/hmc/test_frfcfs_oracle.py``.  The route tables'
own oracle is ``tests/network/test_route_tables.py``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.experiments import (
    fig07_remote_access,
    fig14_organizations,
    fig16_fig17_topologies,
)
from repro.hmc.sched import SCHEDULERS
from repro.system.configs import get_spec
from repro.system.run import run_workload
from repro.workloads.suite import get_workload

from tests.conftest import tiny_system_config
from tests.hmc.test_frfcfs_oracle import ReferenceFRFCFS

WORKLOADS = ("VEC", "BP")
SCALE = 0.05
REFERENCE_DIR = Path(__file__).resolve().parent.parent / "data" / "sched_reference"


def _cfg(num_gpus: int = 2):
    return tiny_system_config(num_gpus=num_gpus, num_sms=2)


def _use_reference_frfcfs(monkeypatch):
    monkeypatch.setitem(SCHEDULERS, "frfcfs", ReferenceFRFCFS)


def _check_committed(run_fn, name: str, num_gpus: int = 2):
    reference = (REFERENCE_DIR / f"{name}.json").read_text()
    result = run_fn(_cfg(num_gpus))
    payload = {"rows": result.rows, "notes": result.notes}
    got = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert got == reference, f"{name} drifted from the committed reference rows"


def _fig14(cfg):
    return fig14_organizations.run(scale=SCALE, workloads=WORKLOADS, cfg=cfg)


def _fig07(cfg):
    # fig07's data distributions span 4 GPU clusters.
    return fig07_remote_access.run(num_ctas=16, lines_per_cta=4, cfg=cfg)


def _fig16(cfg):
    return fig16_fig17_topologies.run(scale=SCALE, workloads=("VEC",), cfg=cfg)


def _check_ugal(arch: str, name: str):
    reference = (REFERENCE_DIR / f"{name}.json").read_text()
    spec = get_spec(arch).with_(routing="ugal")
    result = run_workload(spec, get_workload("BP", SCALE), cfg=_cfg())
    got = json.dumps(dataclasses.asdict(result), sort_keys=True, indent=2) + "\n"
    assert got == reference, f"{arch}+UGAL drifted from {name}.json"


def test_fig14_matches_committed_reference():
    _check_committed(_fig14, "fig14")


def test_fig07_matches_committed_reference():
    _check_committed(_fig07, "fig07", num_gpus=4)


def test_fig16_matches_committed_reference():
    _check_committed(_fig16, "fig16")


def test_fig14_rows_identical(monkeypatch):
    _use_reference_frfcfs(monkeypatch)
    _check_committed(_fig14, "fig14")


def test_fig07_rows_identical(monkeypatch):
    _use_reference_frfcfs(monkeypatch)
    _check_committed(_fig07, "fig07", num_gpus=4)


def test_fig16_rows_identical(monkeypatch):
    _use_reference_frfcfs(monkeypatch)
    _check_committed(_fig16, "fig16")


def test_adaptive_routing_identical(monkeypatch):
    # UGAL keeps its dynamic queue-sensitive decisions; only the static
    # pieces (candidate sets, minimum distances) are memoized.
    _check_ugal("GMN", "ugal_gmn_bp")
    _use_reference_frfcfs(monkeypatch)
    _check_ugal("GMN", "ugal_gmn_bp")


def test_umn_overlay_adaptive_identical(monkeypatch):
    # The UMN overlay exercises pass-through chains (CPU host phases ride
    # them); combined with adaptive routing this covers every routing
    # decision point the topology memoizes.
    _check_ugal("UMN", "ugal_umn_bp")
    _use_reference_frfcfs(monkeypatch)
    _check_ugal("UMN", "ugal_umn_bp")
