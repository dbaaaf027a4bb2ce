"""Tests for the topology graph: construction, routing tables, queries."""

import pytest

from repro.config import NetworkConfig
from repro.errors import RoutingError, TopologyError
from repro.network.topology import Topology

GBPS = NetworkConfig().channel_gbps


def line_topology(n: int) -> Topology:
    topo = Topology("line", n, channel_gbps=GBPS)
    for i in range(n - 1):
        topo.add_link(i, i + 1)
    return topo


class TestConstruction:
    def test_add_link_creates_two_directed_channels(self):
        topo = Topology("t", 2, channel_gbps=GBPS)
        topo.add_link(0, 1)
        assert len(topo.channels) == 2
        assert topo.count_network_links() == 1

    def test_self_link_rejected(self):
        topo = Topology("t", 2, channel_gbps=GBPS)
        with pytest.raises(TopologyError):
            topo.add_link(1, 1)

    def test_out_of_range_router_rejected(self):
        topo = Topology("t", 2, channel_gbps=GBPS)
        with pytest.raises(TopologyError):
            topo.add_link(0, 2)

    def test_zero_routers_rejected(self):
        with pytest.raises(TopologyError):
            Topology("t", 0, channel_gbps=GBPS)

    def test_has_link(self):
        topo = line_topology(3)
        assert topo.has_link(0, 1)
        assert topo.has_link(1, 0)
        assert not topo.has_link(0, 2)

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(TopologyError):
            Topology("t", 3, cluster_of=[0, 1], channel_gbps=GBPS)


class TestRoutingTables:
    def test_distance_on_a_line(self):
        topo = line_topology(5)
        assert topo.distance(0, 4) == 4
        assert topo.distance(2, 2) == 0
        assert topo.distance(3, 1) == 2

    def test_minimal_next_hops_decrease_distance(self):
        topo = line_topology(5)
        hops = topo.minimal_next_hops(1, 4)
        assert [nbr for nbr, _ in hops] == [2]

    def test_multiple_minimal_next_hops_on_a_cycle(self):
        topo = Topology("square", 4, channel_gbps=GBPS)
        for a, b in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            topo.add_link(a, b)
        hops = topo.minimal_next_hops(0, 2)
        assert sorted(nbr for nbr, _ in hops) == [1, 3]

    def test_unreachable_raises(self):
        topo = Topology("disconnected", 3, channel_gbps=GBPS)
        topo.add_link(0, 1)
        assert not topo.reachable(0, 2)
        with pytest.raises(RoutingError):
            topo.minimal_next_hops(0, 2)

    def test_tables_rebuilt_after_adding_links(self):
        topo = Topology("t", 3, channel_gbps=GBPS)
        topo.add_link(0, 1)
        assert not topo.reachable(0, 2)
        topo.add_link(1, 2)
        assert topo.reachable(0, 2)
        assert topo.distance(0, 2) == 2


class TestTerminals:
    def test_attach_and_query(self):
        topo = line_topology(4)
        topo.attach_terminal("gpu0", 0, width=2)
        topo.attach_terminal("gpu0", 1, width=2)
        assert topo.terminal_routers("gpu0") == [0, 1]
        assert topo.terminal_distance("gpu0", 3) == 2

    def test_unknown_terminal_raises(self):
        topo = line_topology(2)
        with pytest.raises(TopologyError):
            topo.attachments("nope")

    def test_router_degree_counts_terminal_widths(self):
        topo = line_topology(3)
        topo.attach_terminal("gpu0", 1, width=2)
        assert topo.router_degree(1) == 2 + 2  # two links + width-2 terminal
        assert topo.router_degree(0) == 1


class TestPassthrough:
    def test_chain_channels_and_lookup(self):
        topo = line_topology(4)
        topo.add_passthrough_chain("cpu", 0, [0, 1, 2, 3])
        chain = topo.passthrough_chains["cpu"][0]
        assert chain.routers == [0, 1, 2, 3]
        assert len(chain.hops_to(2)) == 2
        assert len(chain.hops_from(3)) == 3
        assert chain.hops_to(0) == []

    def test_chain_channels_not_counted_as_network_links(self):
        topo = line_topology(4)
        base = topo.count_network_links()
        topo.add_passthrough_chain("cpu", 0, [0, 1, 2])
        assert topo.count_network_links() == base
        assert topo.count_passthrough_links() == 2

    def test_router_not_on_chain_raises(self):
        topo = line_topology(4)
        topo.add_passthrough_chain("cpu", 0, [0, 1])
        with pytest.raises(RoutingError):
            topo.passthrough_chains["cpu"][0].index_of(3)


class TestWarmDistStore:
    """BFS distance tables are shared across same-shaped topologies."""

    def test_same_shape_hits_store_and_tables_match(self):
        from repro.network import topology as topo_mod

        topo_mod.reset_dist_store()
        a = line_topology(5)
        first = [row[:] for row in a.dist]
        assert topo_mod.dist_store_hits() == 0
        b = line_topology(5)
        assert b.dist == first
        assert topo_mod.dist_store_hits() == 1
        # Same stored table object: pure structure, safe to share.
        assert b.dist is a.dist
        topo_mod.reset_dist_store()

    def test_different_shape_misses_store(self):
        from repro.network import topology as topo_mod

        topo_mod.reset_dist_store()
        line_topology(4).dist
        line_topology(5).dist
        assert topo_mod.dist_store_hits() == 0
        topo_mod.reset_dist_store()

    def test_mutation_after_warm_hit_recomputes(self):
        from repro.network import topology as topo_mod

        topo_mod.reset_dist_store()
        a = line_topology(4)
        assert a.distance(0, 3) == 3
        b = line_topology(4)
        assert b.distance(0, 3) == 3  # warm hit
        b.add_link(0, 3)  # invalidates b's tables; new structure key
        assert b.distance(0, 3) == 1
        assert a.distance(0, 3) == 3  # a's shared table untouched
        topo_mod.reset_dist_store()

    def test_next_hops_are_per_instance(self):
        from repro.network import topology as topo_mod

        topo_mod.reset_dist_store()
        a = line_topology(3)
        b = line_topology(3)
        hops_a = a.minimal_next_hops(0, 2)
        hops_b = b.minimal_next_hops(0, 2)
        # Distances may be shared; Channel objects must never be.
        assert hops_a[0][1] is not hops_b[0][1]
        topo_mod.reset_dist_store()
