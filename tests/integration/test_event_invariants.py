"""Event-level invariants of the packet tier, pinned to committed counts.

The row-identity tests prove that a run's *results* did not change; they
cannot see a refactor that adds, drops or reorders an event on the way to
the same rows.  This test pins what the engine and each layer did on one
small packet point per fabric family: the direct-link path (GMN, whose
host phases reach the CPU cluster over direct links), the memory network
with the pass-through overlay (UMN), PCIe forwarding with atomics, and
the network-forwarded remote-GPU path (CMN) — plus one adaptive-routing
point (GMN on dFBFLY with UGAL, the Fig. 15 configuration).

Regenerate ``tests/data/event_invariants.json`` only on a commit whose
event stream is known good::

    PYTHONPATH=src python tests/integration/test_event_invariants.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.system.configs import get_spec
from repro.system.run import run_workload_detailed
from repro.workloads.suite import get_workload

REFERENCE = Path(__file__).resolve().parent.parent / "data" / "event_invariants.json"

#: (architecture, workload, scale): one point per fabric family.
POINTS = (
    ("GMN", "CG.S", 0.1),
    ("UMN", "FT.S", 0.1),
    ("PCIe", "BFS", 0.1),
    ("CMN", "BH", 0.1),
    ("GMN-dfbfly/ugal", "CG.S", 0.1),
)

#: Point labels that name a registered architecture with spec overrides.
VARIANTS = {
    "GMN-dfbfly/ugal": ("GMN", {"topology": "dfbfly", "routing": "ugal"}),
}


def _spec(arch: str):
    base, overrides = VARIANTS.get(arch, (arch, {}))
    return get_spec(base).with_(**overrides)


def _key(arch: str, workload: str, scale: float) -> str:
    return f"{arch}/{workload}@{scale}"


def measure(arch: str, workload: str, scale: float) -> dict:
    result, system = run_workload_detailed(
        _spec(arch), get_workload(workload, scale)
    )
    return {
        "events_executed": result.events_executed,
        "peak_pending_events": result.peak_pending_events,
        "network.delivered": (
            system.network.stats.delivered if system.network is not None else 0
        ),
        "hmc.served": sum(hmc.total_served for hmc in system.hmc_list),
        "gpu.memory_requests": sum(gpu.stats.memory_requests for gpu in system.gpus),
    }


@pytest.mark.parametrize("point", POINTS, ids=lambda p: _key(*p))
def test_event_counts_match_reference(point):
    expected = json.loads(REFERENCE.read_text())[_key(*point)]
    assert measure(*point) == expected


def test_reference_covers_every_point():
    assert sorted(json.loads(REFERENCE.read_text())) == sorted(
        _key(*p) for p in POINTS
    )


if __name__ == "__main__":
    counts = {_key(*p): measure(*p) for p in POINTS}
    REFERENCE.write_text(json.dumps(counts, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {REFERENCE}\n")
