"""Tests for topology metrics and synthetic traffic patterns."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NetworkConfig, SystemConfig
from repro.errors import ConfigError, TopologyError
from repro.network.metrics import bisection_bandwidth_gbps, topology_metrics
from repro.network.topologies import build_topology
from repro.network.topology import Topology
from repro.system.configs import get_spec
from repro.system.run import run_workload
from repro.network.traffic import (
    PATTERNS,
    OfferedLoad,
    bit_complement,
    get_pattern,
    make_hotspot,
    neighbor,
    transpose,
    uniform,
)


def _gbps4(name):
    """Bisection bandwidth of ``name`` on the 4-GPU system."""
    return bisection_bandwidth_gbps(build_topology(name, SystemConfig(num_gpus=4)))


class TestTopologyMetrics:
    def test_sfbfly_metrics(self):
        m = topology_metrics(build_topology("sfbfly", SystemConfig(num_gpus=4)))
        assert m.routers == 16
        assert m.bidirectional_channels == 24
        assert m.diameter == 1  # within a slice everything is one hop
        assert m.max_gpu_to_hmc_hops == 1

    def test_smesh_has_longer_paths(self):
        sfb = topology_metrics(build_topology("sfbfly", SystemConfig(num_gpus=4)))
        mesh = topology_metrics(build_topology("smesh", SystemConfig(num_gpus=4)))
        assert mesh.max_gpu_to_hmc_hops > sfb.max_gpu_to_hmc_hops
        assert mesh.avg_gpu_to_hmc_hops > sfb.avg_gpu_to_hmc_hops

    def test_bisection_sfbfly_equals_storus2x(self):
        """Section VI-B2: same bisection bandwidth."""
        sfb = _gbps4("sfbfly")
        torus2x = _gbps4("storus-2x")
        assert sfb == pytest.approx(torus2x)

    def test_bisection_ddfly_is_lowest(self):
        ddfly = _gbps4("ddfly")
        sfb = _gbps4("sfbfly")
        storus = _gbps4("storus")
        assert ddfly < sfb
        assert ddfly < storus

    def test_dfbfly_and_sfbfly_same_bisection(self):
        """Intra-cluster channels never cross a cluster bipartition."""
        assert _gbps4("dfbfly") == pytest.approx(_gbps4("sfbfly"))

    def test_single_cluster_rejected(self):
        topo = Topology(
            "one",
            4,
            cluster_of=[0] * 4,
            slice_of=list(range(4)),
            channel_gbps=NetworkConfig().channel_gbps,
        )
        with pytest.raises(TopologyError):
            bisection_bandwidth_gbps(topo)

    def test_as_row(self):
        topo = build_topology("sfbfly", SystemConfig(num_gpus=4))
        row = topology_metrics(topo).as_row()
        assert row["topology"] == "sfbfly"
        assert row["bisection_gbps"] > 0


class TestTrafficPatterns:
    def test_registry(self):
        assert set(PATTERNS) == {
            "uniform", "bit_complement", "transpose", "neighbor", "hotspot"
        }
        with pytest.raises(ConfigError):
            get_pattern("tornado")

    def test_bit_complement_power_of_two(self):
        assert bit_complement(0, 16, random.Random(0)) == 15
        assert bit_complement(5, 16, random.Random(0)) == 10

    def test_bit_complement_general(self):
        assert bit_complement(0, 10, random.Random(0)) == 9

    def test_transpose_swaps_halves(self):
        # 16 endpoints, 4 bits: src 0b0001 -> 0b0100.
        assert transpose(1, 16, random.Random(0)) == 4
        assert transpose(4, 16, random.Random(0)) == 1

    def test_neighbor_wraps(self):
        assert neighbor(15, 16, random.Random(0)) == 0

    def test_hotspot_fraction(self):
        pattern = make_hotspot(hot=3, fraction=0.5)
        rng = random.Random(1)
        hits = sum(1 for _ in range(2000) if pattern(0, 16, rng) == 3)
        assert 900 < hits < 1300  # 50% + uniform share

    def test_hotspot_invalid_fraction(self):
        with pytest.raises(ConfigError):
            make_hotspot(fraction=1.5)

    @settings(max_examples=100, deadline=None)
    @given(
        name=st.sampled_from(sorted(PATTERNS)),
        src=st.integers(0, 1000),
        n=st.integers(2, 128),
    )
    def test_patterns_stay_in_range(self, name, src, n):
        rng = random.Random(42)
        dst = get_pattern(name)(src, n, rng)
        assert 0 <= dst % n < n

    def test_uniform_covers_endpoints(self):
        rng = random.Random(7)
        seen = {uniform(0, 8, rng) for _ in range(200)}
        assert seen == set(range(8))


def _latency(topology, pattern):
    """Average latency of ``pattern`` at 50% load on a bare network."""
    spec = get_spec("GMN").with_(topology=topology)
    traffic = OfferedLoad(0.5, pattern, packets_per_gpu=150, seed=3)
    return run_workload(spec, traffic).avg_net_latency_ps


class TestPatternedLatencyLoad:
    def test_hotspot_hurts_more_than_uniform(self):
        assert _latency("sfbfly", "hotspot") > _latency("sfbfly", "uniform")

    def test_neighbor_is_cheap(self):
        assert _latency("smesh", "neighbor") <= _latency("smesh", "uniform") * 1.1
