"""Canonical spec identity, pinned to committed keys.

On-disk result caches and ``repro serve`` dedup key every run by
``SystemSpec.cache_key()``, so a codec change that re-orders, renames or
re-types one field silently orphans every cached row.  The round-trip
tests cannot see that (both directions would drift together); this test
pins ``canonical_json()`` and ``cache_key()`` of a spread of specs: every
Table III and extension organization, each GMN topology, each network
model, the identity-free watchdog knobs, a factory workload with kwargs,
run kwargs and an organization outside the built-in enum.  Each spec must
also decode back to itself from its canonical form.

Regenerate ``tests/data/spec_keys.json`` only on a commit whose canonical
form is known good::

    PYTHONPATH=src python tests/system/test_spec_keys.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.network.topologies.builders import BUILDERS
from repro.system.configs import (
    EXTENSION_ARCHS,
    TABLE_III,
    ArchSpec,
    TransferMode,
    get_spec,
)
from repro.system.spec import SystemSpec, WorkloadRef

REFERENCE = Path(__file__).resolve().parent.parent / "data" / "spec_keys.json"

_FIG7 = WorkloadRef(
    "vectoradd",
    factory="repro.workloads.vectoradd:make_vectoradd",
    kwargs=(("lines_per_cta", 4), ("num_ctas", 64)),
)


def _specs():
    specs = {}
    for name, arch in {**TABLE_III, **EXTENSION_ARCHS}.items():
        specs[f"arch/{name}"] = SystemSpec.make(arch, "bprop")
    gmn = get_spec("GMN")
    for topology in sorted(BUILDERS):
        if topology != gmn.topology:
            specs[f"gmn/{topology}"] = SystemSpec.make(
                gmn.with_(topology=topology), WorkloadRef("CG.S", 0.25)
            )
    specs["gmn/ugal-stealing"] = SystemSpec.make(
        gmn.with_(routing="ugal", cta_policy="stealing"), "KMN"
    )
    for model in ("analytic", "flit"):
        specs[f"model/{model}"] = SystemSpec.make(
            "UMN", WorkloadRef("FT.S", 0.5), SystemConfig(network_model=model)
        )
    specs["cfg/watchdog"] = SystemSpec.make(
        "GMN",
        "bprop",
        SystemConfig(watchdog_max_events=1000, watchdog_wall_s=2.5),
    )
    base = SystemConfig()
    specs["cfg/nested"] = SystemSpec.make(
        "UMN",
        "RAY",
        dataclasses.replace(
            base,
            num_gpus=8,
            hmc=dataclasses.replace(base.hmc, scheduler="qos_staged"),
            network=dataclasses.replace(base.network, channel_gbps=40.0),
            seed=3,
        ),
    )
    specs["workload/fig7-factory"] = SystemSpec.make(
        "PCIe",
        _FIG7,
        placement_policy="weighted",
        placement_clusters=(0, 1, 2, 3),
        placement_weights=(0.25, 0.25, 0.25, 0.25),
        num_active_gpus=1,
    )
    specs["run_kwargs/seed-traffic"] = SystemSpec.make(
        "CMN", "BFS", seed=7, collect_traffic=True
    )
    specs["arch/out-of-enum"] = SystemSpec.make(
        ArchSpec("TSM", "tsm", TransferMode.ZERO_COPY), WorkloadRef("vectoradd", 0.1)
    )
    return specs


def measure(spec: SystemSpec) -> dict:
    return {"cache_key": spec.cache_key(), "canonical_json": spec.canonical_json()}


SPECS = _specs()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_canonical_keys_match_reference(name):
    expected = json.loads(REFERENCE.read_text())[name]
    assert measure(SPECS[name]) == expected


@pytest.mark.parametrize("name", sorted(SPECS))
def test_canonical_form_decodes_to_same_spec(name):
    spec = SPECS[name]
    expected = json.loads(REFERENCE.read_text())[name]["canonical_json"]
    again = SystemSpec.from_json(expected)
    assert again.canonical_json() == expected
    # The watchdog knobs are not in the canonical form, and tuple-valued
    # run kwargs come back as JSON lists; every other spec is recovered.
    if name not in ("cfg/watchdog", "workload/fig7-factory"):
        assert again == spec


def test_reference_covers_every_spec():
    assert sorted(json.loads(REFERENCE.read_text())) == sorted(SPECS)


if __name__ == "__main__":
    keys = {name: measure(spec) for name, spec in SPECS.items()}
    REFERENCE.write_text(json.dumps(keys, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {REFERENCE} ({len(keys)} specs)\n")
