"""TrafficMatrix / FlowRouter: accumulation, routing spreads, unit loads.

Hand-computed expectations on tiny topologies (a line and a square), so
every fraction is checkable on paper.
"""

import pytest

from repro.config import NetworkConfig
from repro.network.topology import Topology
from repro.network.trafficmatrix import FlowRouter, TrafficMatrix

GBPS = NetworkConfig().channel_gbps


def line4() -> Topology:
    """Routers 0-1-2-3 in a line: every minimal path is unique."""
    topo = Topology("line4", 4, channel_gbps=GBPS)
    for a in (0, 1, 2):
        topo.add_link(a, a + 1)
    topo.attach_terminal("gpu0", 0)
    topo.attach_terminal("gpu1", 3)
    return topo


def square() -> Topology:
    """Routers on a 4-cycle: opposite corners have two minimal paths."""
    topo = Topology("square", 4, channel_gbps=GBPS)
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
        topo.add_link(a, b)
    topo.attach_terminal("gpu0", 0)
    return topo


class TestTrafficMatrix:
    def test_add_accumulates_per_flow(self):
        matrix = TrafficMatrix(4)
        matrix.add("gpu0", 2, requests=1.0, request_bytes=32.0, response_bytes=80.0)
        matrix.add("gpu0", 2, requests=2.0, request_bytes=64.0, response_bytes=160.0)
        matrix.add("gpu0", "gpu1", requests=1.0, request_bytes=144.0)
        assert matrix._flows == {
            ("gpu0", 2): [3.0, 96.0, 240.0],
            ("gpu0", "gpu1"): [1.0, 144.0, 0.0],
        }

    def test_cells_keyed_by_source_and_destination(self):
        matrix = TrafficMatrix(4)
        matrix.add("b", 1)
        matrix.add("a", "z", request_bytes=144.0)
        matrix.add("a", 0, requests=2.0, request_bytes=32.0, response_bytes=80.0)
        matrix.add("a", 0, response_bytes=80.0)
        assert matrix._flows == {
            ("b", 1): [1.0, 0.0, 0.0],
            ("a", "z"): [1.0, 144.0, 0.0],
            ("a", 0): [3.0, 32.0, 160.0],
        }

    def test_destination_router_bounds(self):
        matrix = TrafficMatrix(2)
        with pytest.raises(ValueError):
            matrix.add("gpu0", 2)

    def test_bytes_matrix_router_destined_only(self):
        matrix = TrafficMatrix(3)
        matrix.add("gpu0", 1, request_bytes=100.4)
        matrix.add("gpu0", "gpu1", request_bytes=999.0)  # terminal flow: excluded
        matrix.add("gpu1", 2, request_bytes=7.0)
        assert matrix.bytes_matrix(["gpu0", "gpu1"]) == [
            [0, 100, 0],
            [0, 0, 7],
        ]


class TestFlowRouterLine:
    def test_unique_path_spread(self):
        router = FlowRouter(line4())
        spread = router.path_channels(0, 3)
        # One unique minimal path: each of the three hops carries the
        # whole flow, total traversals == distance.
        assert pytest.approx(sum(spread.values())) == 3.0
        assert all(frac == pytest.approx(1.0) for frac in spread.values())

    def test_distances(self):
        topo = line4()
        assert topo.terminal_distance("gpu0", 3) == 3
        assert topo.distance(3, topo.nearest_attachment("gpu0", 3).router) == 3
        assert topo.destination_router("gpu0", "gpu1") == 3

    def test_channel_loads_request_and_response(self):
        topo = line4()
        router = FlowRouter(topo)
        request, response = router.flow_unit_loads("gpu0", 2)
        att = topo.attachments("gpu0")[0]
        # Request: inject + 2 hops; response: 2 hops back + eject.
        assert request[att.inject] == 1.0 and att.eject not in request
        assert response[att.eject] == 1.0 and att.inject not in response
        assert len(request) == len(response) == 3
        assert set(request).isdisjoint(response)  # opposite directions
        assert router.flow_unit_loads("gpu0", 2) == (request, response)

    def test_terminal_destination_ejects_far_end(self):
        topo = line4()
        router = FlowRouter(topo)
        request, response = router.flow_unit_loads("gpu0", "gpu1")
        far = topo.attachments("gpu1")[0]
        near = topo.attachments("gpu0")[0]
        # inject + 3 hops + the far end's eject; the reply comes back.
        assert request[far.eject] == 1.0
        assert sum(request.values()) == pytest.approx(5.0)
        assert response[near.eject] == 1.0


class TestFlowRouterSquare:
    def test_even_split_on_tied_paths(self):
        router = FlowRouter(square())
        spread = router.path_channels(0, 2)
        # Two minimal paths (via 1 and via 3): four channels at half each.
        assert len(spread) == 4
        assert all(frac == pytest.approx(0.5) for frac in spread.values())
        assert pytest.approx(sum(spread.values())) == 2.0
