"""Edge cases of the experiment runner."""

import dataclasses

import pytest

from repro.core.kernel import Kernel, Phase
from repro.errors import ConfigError
from repro.system.configs import TABLE_III
from repro.system.run import run_workload
from repro.workloads import KernelStep, Workload, get_workload
from tests.conftest import tiny_system_config


def single_kernel_workload(ctas=4):
    kernel = Kernel("k", (ctas,), lambda c: [Phase(1000)])
    return Workload(name="tiny", steps=[KernelStep(kernel)])


BAD_PLACEMENTS = {
    "unknown-policy": dict(placement_policy="hashed"),
    "no-clusters": dict(placement_clusters=[]),
    "weighted-without-weights": dict(
        placement_policy="weighted", placement_clusters=[0, 1]
    ),
    "weighted-short-weights": dict(
        placement_policy="weighted", placement_clusters=[0, 1], placement_weights=[1.0]
    ),
    "weighted-zero-weights": dict(
        placement_policy="weighted",
        placement_clusters=[0, 1],
        placement_weights=[0.0, 0.0],
    ),
    "local-two-clusters": dict(placement_policy="local", placement_clusters=[0, 1]),
}


class TestPlacementOverrides:
    @pytest.mark.parametrize("name", sorted(BAD_PLACEMENTS))
    def test_bad_placement_fails_alike_at_both_tiers(self, name):
        """The packet and analytic tiers validate a placement in one place,
        so a bad one raises the same ``ConfigError`` at each."""
        messages = set()
        for model in ("packet", "analytic"):
            cfg = dataclasses.replace(tiny_system_config(), network_model=model)
            with pytest.raises(ConfigError) as raised:
                run_workload(
                    TABLE_III["UMN"], get_workload("KMN", 0.05), cfg=cfg,
                    **BAD_PLACEMENTS[name],
                )
            messages.add(str(raised.value))
        assert len(messages) == 1

    def test_weighted_needs_weights(self):
        with pytest.raises(ConfigError):
            run_workload(
                TABLE_III["UMN"], single_kernel_workload(),
                cfg=tiny_system_config(), placement_policy="weighted",
                placement_clusters=[0, 1],
            )

    def test_explicit_clusters(self):
        r = run_workload(
            TABLE_III["UMN"], get_workload("KMN", 0.05),
            cfg=tiny_system_config(), placement_policy="local",
            placement_clusters=[2],
        )
        assert r.kernel_ps > 0

    def test_seed_override_used(self):
        a = run_workload(
            TABLE_III["UMN"], get_workload("BFS", 0.1),
            cfg=tiny_system_config(), seed=5,
        )
        b = run_workload(
            TABLE_III["UMN"], get_workload("BFS", 0.1),
            cfg=tiny_system_config(), seed=5,
        )
        assert a.kernel_ps == b.kernel_ps


class TestDegenerateWorkloads:
    def test_compute_only_workload(self):
        r = run_workload(
            TABLE_III["UMN"], single_kernel_workload(), cfg=tiny_system_config()
        )
        assert r.kernel_ps > 0
        assert r.memory_requests == 0

    def test_single_cta_on_four_gpus(self):
        """Three GPUs get nothing and must still complete."""
        r = run_workload(
            TABLE_III["UMN"], single_kernel_workload(ctas=1),
            cfg=tiny_system_config(),
        )
        assert r.kernel_ps > 0

    def test_more_kernels_than_needed(self):
        kernel = Kernel("k", (2,), lambda c: [Phase(100)])
        wl = Workload(name="multi", steps=[KernelStep(kernel)] * 5)
        r = run_workload(TABLE_III["UMN"], wl, cfg=tiny_system_config())
        assert len(r.kernel_breakdown_ps) == 5
        assert all(k > 0 for k in r.kernel_breakdown_ps)

    def test_single_gpu_system(self):
        cfg = tiny_system_config(num_gpus=1)
        r = run_workload(TABLE_III["UMN"], get_workload("KMN", 0.1), cfg=cfg)
        assert r.kernel_ps > 0
