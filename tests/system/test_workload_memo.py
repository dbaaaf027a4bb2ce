"""The event tiers build each workload recipe once per run of points.

A sweep runs one :class:`~repro.system.spec.WorkloadRef` on every
organization back to back; :func:`repro.system.spec.workload_for` keeps the
last built workload, and once it runs again its kernels keep each CTA's
phases.  These tests pin the tax (one build per recipe), that rows from
the memo are the rows of a fresh build, that network-only recipes are
never kept, and the bound.
"""

from __future__ import annotations

import threading

import pytest

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.system import spec as spec_module
from repro.system.configs import TABLE_III
from repro.system.run import run_workload
from repro.system.spec import SystemSpec, WorkloadRef, workload_for

SCALE = 0.1

TRAFFIC = WorkloadRef(
    "uniform@10%",
    factory="repro.network.traffic:OfferedLoad",
    kwargs=(("load", 0.1), ("packets_per_gpu", 20), ("pattern", "uniform"), ("seed", 1)),
)


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    """Each test starts from (and leaves behind) its own empty memo."""
    monkeypatch.setattr(spec_module, "_WORKLOAD_CACHE", {})


@pytest.fixture
def builds(monkeypatch):
    """Counts recipe builds through the name the memo looks up."""
    counts = []
    build = WorkloadRef.build

    def counted_build(ref):
        counts.append(ref)
        return build(ref)

    monkeypatch.setattr(WorkloadRef, "build", counted_build)
    return counts


def test_one_build_per_recipe_across_the_organizations(builds):
    ref = WorkloadRef("BP", SCALE)
    assert len(TABLE_III) == 7
    for arch in TABLE_III.values():
        SystemSpec.make(arch, ref).run()
    assert builds == [ref]


@pytest.mark.parametrize("workload", ["BP", "CG.S", "KMN"])
def test_rows_from_the_memo_equal_rows_from_a_fresh_build(workload):
    ref = WorkloadRef(workload, SCALE)
    for arch in TABLE_III.values():
        memoized = SystemSpec.make(arch, ref).run()
        fresh = run_workload(arch, ref.build(), cfg=SystemConfig())
        assert memoized.as_row() == fresh.as_row(), arch.name
        assert memoized.events_executed == fresh.events_executed, arch.name
    assert list(spec_module._WORKLOAD_CACHE) == [ref]


def test_offered_load_is_built_on_every_call_and_never_kept(builds):
    spec = SystemSpec.make("GMN", TRAFFIC)
    first = spec.run()
    second = spec.run()
    assert builds == [TRAFFIC, TRAFFIC]
    assert spec_module._WORKLOAD_CACHE == {}
    assert first.as_row() == second.as_row()
    assert first.net_delivered > 0


def test_a_full_memo_starts_over(builds):
    refs = [WorkloadRef("VEC", scale) for scale in (0.25, 0.5, 0.25)]
    for ref in refs:
        workload_for(ref)
        workload_for(ref)
    assert builds == refs
    assert len(spec_module._WORKLOAD_CACHE) == spec_module._WORKLOAD_CACHE_MAX == 1


def test_program_keeps_each_ctas_phases_once_the_recipe_runs_again():
    ref = WorkloadRef("VEC", SCALE)
    kernel = workload_for(ref).kernels[0]
    # A recipe that has run once keeps nothing.
    assert kernel.program(0) is not kernel.program(0)
    assert workload_for(ref).kernels[0] is kernel
    first = kernel.program(0)
    assert kernel.program(0) is first
    last = kernel.num_ctas - 1
    assert kernel.program(last) is kernel.program(last)
    for cta in (-1, kernel.num_ctas):
        with pytest.raises(ConfigError, match=f"CTA {cta} outside kernel"):
            kernel.program(cta)


def test_threads_running_one_recipe_get_equal_rows():
    spec = SystemSpec.make("UMN", WorkloadRef("CG.S", SCALE))
    start = threading.Barrier(2)
    rows = []

    def run() -> None:
        start.wait()
        rows.append(spec.run().as_row())

    threads = [threading.Thread(target=run) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
        assert not thread.is_alive()
    assert len(rows) == 2
    fresh = run_workload(spec.arch, spec.workload.build(), cfg=SystemConfig())
    assert rows[0] == rows[1] == fresh.as_row()
