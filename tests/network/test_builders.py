"""Tests for the topology builders: geometry and paper-reported properties."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CPUConfig, GPUConfig, NetworkConfig, SystemConfig
from repro.errors import TopologyError
from repro.network.topologies import (
    BUILDERS,
    CMN_GPU_CHANNELS,
    build_cmn,
    build_topology,
    grid_shape,
)
from repro.system.builder import MultiGPUSystem
from repro.system.configs import get_spec
from tests.conftest import tiny_gpu_config


def _build(name, num_gpus, include_cpu=False):
    return build_topology(name, SystemConfig(num_gpus=num_gpus), include_cpu)


class TestGridShape:
    def test_square(self):
        assert grid_shape(16) == (4, 4)

    def test_rectangular(self):
        assert grid_shape(8) == (2, 4)

    def test_prime_becomes_line(self):
        assert grid_shape(5) == (1, 5)

    def test_invalid(self):
        with pytest.raises(TopologyError):
            grid_shape(0)

    @given(st.integers(min_value=1, max_value=256))
    def test_shape_factors_n(self, n):
        r, c = grid_shape(n)
        assert r * c == n
        assert r <= c


class TestSFBFLY:
    def test_4gpu_slice_is_fully_connected(self):
        topo = _build("sfbfly", 4)
        # Slice 0 members: the 0th HMC of each cluster.
        members = [0, 4, 8, 12]
        for a in members:
            for b in members:
                if a != b:
                    assert topo.has_link(a, b)

    def test_no_intra_cluster_channels(self):
        topo = _build("sfbfly", 4)
        for c in range(4):
            members = list(range(c * 4, c * 4 + 4))
            for a in members:
                for b in members:
                    assert not topo.has_link(a, b) or a == b

    def test_gpu_to_any_hmc_is_at_most_one_network_hop(self):
        topo = _build("sfbfly", 4)
        for g in range(4):
            for r in range(topo.num_routers):
                assert topo.terminal_distance(f"gpu{g}", r) <= 1

    def test_channel_counts_match_fig12(self):
        # Fig. 12: sFBFLY saves 50% at 4 GPUs and 43% at 8 GPUs vs dFBFLY.
        for gpus, saving in [(4, 0.50), (8, 0.43)]:
            d = _build("dfbfly", gpus).count_network_links()
            s = _build("sfbfly", gpus).count_network_links()
            assert (d - s) / d == pytest.approx(saving, abs=0.01)

    def test_4gpu_counts_are_48_and_24(self):
        assert _build("dfbfly", 4).count_network_links() == 48
        assert _build("sfbfly", 4).count_network_links() == 24

    def test_16gpu_slices_are_4x4_fbfly(self):
        topo = _build("sfbfly", 16)
        # A 4x4 FBFLY slice has 4*C(4,2)*2 = 48 links; 4 slices -> 192.
        assert topo.count_network_links() == 192

    def test_gpu_distribution_width(self):
        topo = _build("sfbfly", 4)
        atts = topo.attachments("gpu0")
        assert len(atts) == 4
        assert all(att.inject.width == 2 for att in atts)


class TestDFBFLY:
    def test_contains_intra_cluster_cliques(self):
        topo = _build("dfbfly", 4)
        for c in range(4):
            members = list(range(c * 4, c * 4 + 4))
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    assert topo.has_link(a, b)

    def test_minimal_gpu_to_hmc_distance_matches_sfbfly(self):
        # Section V-B: minimal routing between any GPU and HMC is identical.
        dfb = _build("dfbfly", 4)
        sfb = _build("sfbfly", 4)
        for g in range(4):
            for r in range(16):
                assert dfb.terminal_distance(f"gpu{g}", r) == sfb.terminal_distance(
                    f"gpu{g}", r
                )


class TestDDFLY:
    def test_one_global_link_per_cluster_pair(self):
        topo = _build("ddfly", 4)
        # links = 4 intra cliques (6 each) + C(4,2) global = 24 + 6.
        assert topo.count_network_links() == 30

    def test_all_hmcs_reachable(self):
        topo = _build("ddfly", 4)
        for a in range(16):
            for b in range(16):
                assert topo.reachable(a, b)

    def test_fewer_inter_cluster_links_than_sfbfly(self):
        # The dragonfly's single global channel per cluster pair is the
        # bandwidth limitation Section V-B calls out.
        ddfly = _build("ddfly", 4)
        inter_ddfly = sum(
            1
            for ch in ddfly.channels
            if ddfly.cluster_of[ch.src] != ddfly.cluster_of[ch.dst]
        )
        sfb = _build("sfbfly", 4)
        inter_sfb = len(sfb.channels)
        assert inter_ddfly < inter_sfb


class TestSlicedMeshTorus:
    def test_smesh_4gpu_slice_is_line(self):
        topo = _build("smesh", 4)
        # line: 3 links per slice, 4 slices.
        assert topo.count_network_links() == 12

    def test_storus_4gpu_slice_is_ring(self):
        topo = _build("storus", 4)
        assert topo.count_network_links() == 16

    def test_2x_variants_double_width_not_count(self):
        mesh = _build("smesh", 4)
        mesh2x = _build("smesh-2x", 4)
        assert mesh.count_network_links() == mesh2x.count_network_links()
        assert all(ch.width == 2 for ch in mesh2x.channels)

    def test_torus_bisection_matches_sfbfly_at_2x(self):
        # Section VI-B2: sTORUS-2x has the same bisection bandwidth as
        # sFBFLY for the 4-GPU system (cut each slice in half: ring-2x cuts
        # 2 links of width 2 = clique cuts 4 of width 1).
        torus2x = _build("storus-2x", 4)
        sfb = _build("sfbfly", 4)

        def slice0_cut_width(topo):
            left = {0, 4}  # clusters 0,1 of slice 0
            right = {8, 12}
            return sum(
                ch.width
                for ch in topo.channels
                if ch.src in left and ch.dst in right
            )

        assert slice0_cut_width(torus2x) == slice0_cut_width(sfb)


class TestOverlay:
    def test_chains_cover_every_gpu_hmc(self):
        topo = _build("overlay", 3, include_cpu=True)
        chains = topo.passthrough_chains["cpu"]
        covered = {r for chain in chains.values() for r in chain.routers}
        assert covered == set(range(topo.num_routers))

    def test_chain_heads_are_cpu_hmcs(self):
        topo = _build("overlay", 3, include_cpu=True)
        cpu_cluster = 3
        for s, chain in topo.passthrough_chains["cpu"].items():
            assert chain.routers[0] == cpu_cluster * 4 + s

    def test_overlay_requires_cpu(self):
        with pytest.raises(TopologyError):
            _build("overlay", 4, include_cpu=False)

    def test_overlay_smesh_variant(self):
        topo = _build("overlay-smesh", 3, include_cpu=True)
        assert topo.passthrough_chains
        assert topo.name == "overlay-smesh"


class TestOtherBuilders:
    def test_ring_is_connected(self):
        topo = _build("ring", 4)
        assert topo.count_network_links() == 16
        assert all(topo.reachable(0, r) for r in range(16))

    def test_fbfly_single_attachment_per_gpu(self):
        topo = _build("fbfly", 4)
        atts = topo.attachments("gpu0")
        assert len(atts) == 1
        assert atts[0].inject.width == 8

    def test_cmn_gpus_attach_to_cpu_hmcs(self):
        topo = build_cmn(SystemConfig(num_gpus=4))
        assert topo.num_routers == 4
        for g in range(4):
            assert len(topo.attachments(f"gpu{g}")) == 2

    def test_registry_rejects_unknown(self):
        with pytest.raises(TopologyError):
            _build("hypercube", 4)

    def test_include_cpu_adds_a_cluster(self):
        without = _build("sfbfly", 4, include_cpu=False)
        with_cpu = _build("sfbfly", 4, include_cpu=True)
        assert with_cpu.num_routers == without.num_routers + 4
        assert "cpu" in with_cpu.terminals


@settings(max_examples=25, deadline=None)
@given(
    gpus=st.integers(min_value=1, max_value=8),
    name=st.sampled_from(["sfbfly", "smesh", "storus", "dfbfly", "ddfly", "ring"]),
)
def test_every_gpu_reaches_every_hmc(gpus, name):
    """Property: in any GPU-network topology, every GPU can reach every HMC
    through the network (possibly via its own attachment router)."""
    topo = _build(name, gpus)
    for g in range(gpus):
        for r in range(topo.num_routers):
            dist = topo.terminal_distance(f"gpu{g}", r)
            assert dist < (1 << 29), f"gpu{g} cannot reach router {r} in {name}"


# ---------------------------------------------------------------------------
# Every topology follows the system configuration
# ---------------------------------------------------------------------------
#: No value here is a config default: 3 GPUs of 2 HMCs, 4 GPU and 6 CPU
#: channels, 40 GB/s channels.
ODD_CFG = SystemConfig(
    num_gpus=3,
    gpu=GPUConfig(hmcs_per_gpu=2, num_channels=4),
    cpu=CPUConfig(num_channels=6),
    network=NetworkConfig(channel_gbps=40.0),
)
#: Width of each of a terminal's links to its cluster's HMCs: 4 GPU and
#: 6 CPU channels spread over 2 HMCs.
ODD_WIDTH = {"gpu0": 2, "gpu1": 2, "gpu2": 2, "cpu": 3}


def _terminal_links(topo):
    """terminal -> [(router, inject width, eject width)] in attachment order."""
    return {
        t: [(a.router, a.inject.width, a.eject.width) for a in atts]
        for t, atts in topo.terminals.items()
    }


def _all_gbps(topo):
    return {ch.gbps for ch in topo.all_channels()}


@pytest.mark.parametrize("include_cpu", [False, True])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_every_topology_follows_the_config(name, include_cpu):
    if name.startswith("overlay") and not include_cpu:
        with pytest.raises(TopologyError):
            build_topology(name, ODD_CFG, include_cpu)
        return
    topo = build_topology(name, ODD_CFG, include_cpu)
    clusters = ["gpu0", "gpu1", "gpu2"] + (["cpu"] if include_cpu else [])
    assert topo.name == name
    assert topo.num_routers == len(clusters) * 2
    assert _all_gbps(topo) == {40.0}
    if name == "fbfly":
        # One attachment per terminal carrying all of its channels.
        full = {"gpu0": 4, "gpu1": 4, "gpu2": 4, "cpu": 6}
        expected = {t: [(2 * c, full[t], full[t])] for c, t in enumerate(clusters)}
    else:
        expected = {
            t: [(2 * c + s, ODD_WIDTH[t], ODD_WIDTH[t]) for s in range(2)]
            for c, t in enumerate(clusters)
        }
    assert _terminal_links(topo) == expected
    slice_width = 2 if name.endswith("-2x") else 1
    assert {ch.width for ch in topo.channels} == {slice_width}


def test_cmn_follows_the_config():
    topo = build_cmn(ODD_CFG)
    assert topo.num_routers == 2
    assert _all_gbps(topo) == {40.0}
    expected = {"cpu": [(0, 3, 3), (1, 3, 3)]}
    for g in range(3):
        expected[f"gpu{g}"] = [
            ((g + k) % 2, 1, 1) for k in range(CMN_GPU_CHANNELS)
        ]
    assert _terminal_links(topo) == expected


@pytest.mark.parametrize("arch", ["GMN", "UMN", "CMN"])
def test_system_links_to_own_cluster_share_one_width(arch):
    """Each terminal's links to its own cluster's HMCs, direct links or
    memory-network attachments, have the width of the config's rule."""
    gpu = dataclasses.replace(tiny_gpu_config(), hmcs_per_gpu=2, num_channels=4)
    system = MultiGPUSystem(get_spec(arch), ODD_CFG.scaled(gpu=gpu))
    direct = system._direct_links
    widths = {}
    for cluster, terminal in enumerate(ODD_WIDTH):
        if (terminal, cluster, 0) in direct:
            links = [direct[(terminal, cluster, lc)] for lc in range(2)]
            channels = [ch for link in links for ch in (link.req, link.resp)]
        else:
            own = {system.fabric.router_of(cluster, lc, 2) for lc in range(2)}
            atts = [
                a for a in system.network.topo.attachments(terminal)
                if a.router in own
            ]
            assert len(atts) == 2
            channels = [ch for a in atts for ch in (a.inject, a.eject)]
        widths[terminal] = {ch.width for ch in channels}
    assert widths == {t: {w} for t, w in ODD_WIDTH.items()}
