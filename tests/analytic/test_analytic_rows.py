"""The analytic tier's rows, pinned exactly.

Every ``RunResult.as_row()`` field of a fixed set of analytic points must
equal the committed value exactly, floats compared by ``repr``: the nine
organizations on every Table II workload at scale 0.25, BP on every
topology of the organizations with a free topology, Fig. 7's weighted
placements on one and on two active GPUs, and one Fig. 10 point that also
collects its traffic matrix.  A change that reassociates one product in
the queueing-wait terms shows here (it moves the last digits of some
rows' network latency) even when it stays inside the cross-tier
tolerance bands.

Regenerate ``tests/data/analytic_rows.json`` only on a commit whose
analytic rows are known good::

    PYTHONPATH=src python tests/analytic/test_analytic_rows.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

from repro.analytic import analytic_run, profile_for
from repro.config import SystemConfig
from repro.errors import TopologyError
from repro.network.topologies import BUILDERS
from repro.system.configs import EXTENSION_ARCHS, TABLE_III
from repro.system.spec import WorkloadRef
from repro.workloads.suite import WORKLOAD_NAMES

REFERENCE = Path(__file__).resolve().parent.parent / "data" / "analytic_rows.json"

ANALYTIC = SystemConfig(network_model="analytic")
ARCHS = {**TABLE_III, **EXTENSION_ARCHS}
VECTORADD = WorkloadRef(
    "vectoradd",
    factory="repro.workloads.vectoradd:make_vectoradd",
    kwargs=(("num_ctas", 96), ("lines_per_cta", 8)),
)
#: Fig. 7's per-cluster page weights and its slower-vault GMN config.
FIG7_WEIGHTS = ((1.0, 0.0, 0.0, 0.0), (0.5, 0.5, 0.0, 0.0), (0.25,) * 4)
FIG7_CFG = dataclasses.replace(
    ANALYTIC, hmc=dataclasses.replace(ANALYTIC.hmc, vault_bus_bytes_per_cycle=2)
)


def points():
    """(label, arch spec, workload recipe, config, analytic_run kwargs)."""
    for arch, spec in ARCHS.items():
        for name in WORKLOAD_NAMES:
            yield f"{name}@{arch}", spec, WorkloadRef(name, 0.25), ANALYTIC, {}
    for arch in ("GMN", "GMN-ZC", "UMN"):
        for topology in BUILDERS:
            yield (
                f"BP@{arch}-{topology}",
                ARCHS[arch].with_(topology=topology),
                WorkloadRef("BP", 0.25),
                ANALYTIC,
                {},
            )
    for arch, cfg in (("PCIe", ANALYTIC), ("GMN", FIG7_CFG)):
        for active in (1, 2):
            for weights in FIG7_WEIGHTS:
                yield (
                    f"fig7@{arch}/{active}gpu/{weights}",
                    ARCHS[arch],
                    VECTORADD,
                    cfg,
                    dict(
                        placement_policy="weighted",
                        placement_clusters=(0, 1, 2, 3),
                        placement_weights=weights,
                        num_active_gpus=active,
                    ),
                )
    yield "fig10@GMN/CG.S", ARCHS["GMN"], WorkloadRef("CG.S", 0.25), ANALYTIC, {
        "collect_traffic": True
    }


def measure_all() -> dict:
    rows = {}
    for label, spec, ref, cfg, kwargs in points():
        try:
            result = analytic_run(spec, profile_for(ref), cfg=cfg, **kwargs)
        except TopologyError:  # the overlays exist only with a CPU
            continue
        row = {
            key: repr(value) if isinstance(value, float) else value
            for key, value in result.as_row().items()
        }
        if result.traffic_matrix is not None:
            row["traffic_matrix"] = repr(result.traffic_matrix)
        rows[label] = row
    return rows


def test_analytic_rows_equal_the_committed_rows():
    want = json.loads(REFERENCE.read_text())
    got = measure_all()
    assert got.keys() == want.keys()
    for label, row in want.items():
        assert got[label] == row, label


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(measure_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}", file=sys.stderr)
