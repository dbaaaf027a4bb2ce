"""The analytic tier profiles each workload recipe once per process.

A sweep asks for the same :class:`~repro.system.spec.WorkloadRef` on many
architectures; the profile depends on the recipe alone, so
:func:`repro.analytic.profile_for` memoizes it.  These tests pin the tax
(one build and one profile per recipe), that a memoized profile is the
fresh one, that rows do not move, and that a network-only recipe is never
profiled.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.analytic import analytic_run, profile_for
from repro.analytic import model as analytic_model
from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.experiments.fig07_remote_access import DISTRIBUTIONS
from repro.system.configs import TABLE_III
from repro.system.spec import SystemSpec, WorkloadRef
from repro.workloads.suite import WORKLOAD_NAMES

ANALYTIC = SystemConfig(network_model="analytic")

FIG7_REF = WorkloadRef(
    "vectoradd",
    factory="repro.workloads.vectoradd:make_vectoradd",
    kwargs=(("num_ctas", 96), ("lines_per_cta", 8)),
)


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    """Each test starts from (and leaves behind) its own empty memo."""
    monkeypatch.setattr(analytic_model, "_PROFILE_CACHE", {})


@pytest.fixture
def calls(monkeypatch):
    """Counts workload builds and profiles through the names the memo uses."""
    counts = {"build": 0, "profile": 0}
    build, profile = WorkloadRef.build, analytic_model.profile_workload

    def counted_build(ref):
        counts["build"] += 1
        return build(ref)

    def counted_profile(workload):
        counts["profile"] += 1
        return profile(workload)

    monkeypatch.setattr(WorkloadRef, "build", counted_build)
    monkeypatch.setattr(analytic_model, "profile_workload", counted_profile)
    return counts


def test_one_build_and_profile_per_recipe(calls):
    ref = WorkloadRef("BP", 0.25)
    for arch in TABLE_III.values():
        SystemSpec.make(arch, ref, ANALYTIC).run()
    assert len(TABLE_III) == 7
    assert calls == {"build": 1, "profile": 1}


def test_equal_recipes_share_one_profile(calls):
    assert profile_for(WorkloadRef("KMN", 0.5)) is profile_for(WorkloadRef("KMN", 0.5))
    assert profile_for(WorkloadRef("KMN", 1.0)) is not profile_for(WorkloadRef("KMN", 0.5))
    assert calls == {"build": 2, "profile": 2}


def test_a_full_memo_starts_over(monkeypatch):
    monkeypatch.setattr(analytic_model, "_PROFILE_CACHE_MAX", 2)
    refs = [WorkloadRef("VEC", scale) for scale in (0.25, 0.5, 1.0)]
    for ref in refs:
        profile_for(ref)
    assert list(analytic_model._PROFILE_CACHE) == refs[2:]


_RECIPES = [
    WorkloadRef(name, scale) for name in WORKLOAD_NAMES for scale in (0.25, 1.0)
] + [WorkloadRef("VEC"), FIG7_REF]


@pytest.mark.parametrize("ref", _RECIPES, ids=lambda ref: f"{ref.name}/{ref.scale}")
def test_memoized_profile_is_the_fresh_profile(ref):
    memoized = profile_for(ref)
    assert profile_for(ref) is memoized
    assert memoized == analytic_model.profile_workload(ref.build())


@pytest.mark.parametrize("workload", ["BP", "CG.S", "KMN"])
def test_rows_from_a_recipe_equal_rows_from_the_workload(workload):
    ref = WorkloadRef(workload, 0.25)
    for arch in TABLE_III.values():
        from_ref = SystemSpec.make(arch, ref, ANALYTIC).run()
        from_workload = analytic_run(arch, ref.build(), cfg=ANALYTIC)
        assert from_ref.as_row() == from_workload.as_row(), arch.name


def test_fig7_rows_from_a_recipe_equal_rows_from_the_workload():
    for weights in (w for _, w in DISTRIBUTIONS):
        options = dict(
            placement_policy="weighted",
            placement_clusters=(0, 1, 2, 3),
            placement_weights=tuple(weights),
            num_active_gpus=1,
        )
        spec = SystemSpec.make("GMN", FIG7_REF, ANALYTIC, **options)
        expected = analytic_run(spec.arch, FIG7_REF.build(), cfg=ANALYTIC, **options)
        assert spec.run().as_row() == expected.as_row()


def test_offered_load_recipe_runs_network_only(calls):
    traffic = WorkloadRef(
        "uniform@10%",
        factory="repro.network.traffic:OfferedLoad",
        kwargs=(("load", 0.1), ("packets_per_gpu", 20), ("pattern", "uniform"), ("seed", 1)),
    )
    spec = SystemSpec.make("GMN", traffic, ANALYTIC)
    # The network-only path, not the capacity model, turns it down.
    with pytest.raises(ConfigError, match="network-only traffic needs the packet or flit tier"):
        spec.run()
    assert calls == {"build": 1, "profile": 0}
    assert analytic_model._PROFILE_CACHE == {}
    packet = SystemSpec.make("GMN", traffic, SystemConfig()).run()
    assert packet.net_delivered > 0


def test_threads_running_one_recipe_get_equal_rows():
    spec = SystemSpec.make("UMN", WorkloadRef("CG.S", 0.25), ANALYTIC)
    start = threading.Barrier(2)
    rows = []

    def run() -> None:
        start.wait()
        rows.append(spec.run().as_row())

    threads = [threading.Thread(target=run) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
        assert not thread.is_alive()
    assert len(rows) == 2
    assert rows[0] == rows[1] == spec.run().as_row()


def test_many_threads_sharing_a_small_memo_get_fresh_profiles(monkeypatch):
    # A memo of two for three recipes: threads miss, insert and clear it
    # under each other; every profile handed out must still be the fresh one.
    monkeypatch.setattr(analytic_model, "_PROFILE_CACHE_MAX", 2)
    refs = [WorkloadRef(name, 0.25) for name in ("BP", "KMN", "SCAN")]
    fresh = {ref: analytic_model.profile_workload(ref.build()) for ref in refs}
    wrong = []

    def profile_repeatedly(offset: int) -> None:
        for i in range(30):
            ref = refs[(i + offset) % len(refs)]
            if profile_for(ref) != fresh[ref]:
                wrong.append(ref)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [
        threading.Thread(target=profile_repeatedly, args=(n,)) for n in range(6)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert len(analytic_model._PROFILE_CACHE) <= len(refs)
