"""Oracle test for the topology's memoized static routing answers.

Every static routing answer — the injection and ejection attachment, UGAL's
minimum distance, the minimal-path DAG UGAL costs paths over and its
costed form, the destination router of a terminal-to-terminal packet, and
``attachment_at`` — is memoized on the :class:`Topology` and must be
forgotten whenever the topology mutates.  Each check below recomputes the
answer from scratch (its own BFS over ``topo.adj`` plus the attachment
lists) and compares, on every registered topology, before and after each
kind of mutation.  A topology that kept stale memos across a mutation
fails here.
"""

from __future__ import annotations

import collections

import pytest

from repro.config import NetworkConfig, SystemConfig
from repro.errors import RoutingError
from repro.network.packet import Packet, PacketKind
from repro.network.routing import make_routing
from repro.network.topologies import BUILDERS, build_topology
from repro.network.topology import UNREACHABLE

NUM_GPUS = 4
HOP_PS = NetworkConfig().hop_latency_ps
#: Packet sizes the costed DAGs are checked at: a request header and a
#: read response.
SIZES = (16, 144)


def _bfs_dist(topo):
    n = topo.num_routers
    dist = [[UNREACHABLE] * n for _ in range(n)]
    for src in range(n):
        dist[src][src] = 0
        queue = collections.deque([src])
        while queue:
            u = queue.popleft()
            for v, _ in topo.adj[u]:
                if dist[src][v] == UNREACHABLE:
                    dist[src][v] = dist[src][u] + 1
                    queue.append(v)
    return dist


def _ref_injection(topo, dist, terminal, dst_router):
    best = best_dist = None
    for att in topo.attachments(terminal):
        d = dist[att.router][dst_router]
        if best_dist is None or d < best_dist:
            best, best_dist = att, d
    return best


def _ref_ejection(topo, dist, terminal, cur_router):
    return min(topo.attachments(terminal), key=lambda att: dist[cur_router][att.router])


def _ref_destination_router(topo, dist, src, dst):
    src_atts = topo.attachments(src)
    return min(
        (att.router for att in topo.attachments(dst)),
        key=lambda r: min(dist[a.router][r] for a in src_atts),
    )


def _ref_attachment_at(topo, terminal, router):
    for att in topo.attachments(terminal):
        if att.router == router:
            return att
    return None


def _ref_minimal_dag(topo, dist, start, dst):
    """``{router: minimal next hops}`` over every router on a minimal
    ``start`` -> ``dst`` path, ``dst`` excluded."""
    total = dist[start][dst]
    return {
        r: [(nbr, ch) for nbr, ch in topo.adj[r] if dist[nbr][dst] == dist[r][dst] - 1]
        for r in range(topo.num_routers)
        if r != dst and dist[start][r] + dist[r][dst] == total
    }


def _check_minimal_dags(topo, dist):
    n = topo.num_routers
    for start in range(n):
        for dst in range(n):
            if dist[start][dst] == UNREACHABLE:
                with pytest.raises(RoutingError):
                    topo.minimal_dag(start, dst)
                for size in SIZES:
                    with pytest.raises(RoutingError):
                        topo.costed_dag(start, dst, size, HOP_PS)
                continue
            dag = topo.minimal_dag(start, dst)
            assert dict(dag) == _ref_minimal_dag(topo, dist, start, dst)
            # Nearest ``dst`` first: every router after its next hops.
            order = [dist[r][dst] for r, _ in dag]
            assert order == sorted(order)
            for size in SIZES:
                # The same DAG, each hop carrying its serialization of
                # ``size`` plus the hop latency.
                assert [
                    (r, [(nbr, ch, ch.serialization_ps(size) + HOP_PS) for nbr, ch in hops])
                    for r, hops in dag
                ] == [
                    (r, list(hops)) for r, hops in topo.costed_dag(start, dst, size, HOP_PS)
                ]


def _check(topo, policy):
    dist = _bfs_dist(topo)
    n = topo.num_routers
    assert [[topo.distance(a, b) for b in range(n)] for a in range(n)] == dist
    _check_minimal_dags(topo, dist)
    terminals = sorted(topo.terminals)
    for terminal in terminals:
        for r in range(n):
            packet = Packet(PacketKind.READ_REQ, terminal, r, 16, pid=r)
            ref_inj = _ref_injection(topo, dist, terminal, r)
            assert topo.nearest_attachment(terminal, r) is ref_inj
            assert topo.nearest_attachment(terminal, r) is _ref_ejection(
                topo, dist, terminal, r
            )
            assert topo.distance(
                topo.nearest_attachment(terminal, r).router, r
            ) == min(dist[a.router][r] for a in topo.attachments(terminal))
            if policy.name == "min":
                assert policy.select_injection(topo, packet, r, 0) is ref_inj
                response = Packet(PacketKind.READ_RESP, r, terminal, 16, pid=r)
                assert policy.select_ejection(
                    topo, response, r, 0
                ) is _ref_ejection(topo, dist, terminal, r)
            else:
                # Idle channels: UGAL's cost reduces to static path length,
                # so it must pick a reachable minimum-distance attachment.
                att = policy.select_injection(topo, packet, r, 0)
                assert dist[att.router][r] == dist[ref_inj.router][r]
                response = Packet(PacketKind.READ_RESP, r, terminal, 16, pid=r)
                att = policy.select_ejection(topo, response, r, 0)
                assert dist[r][att.router] == dist[r][ref_inj.router]
            ref_at = _ref_attachment_at(topo, terminal, r)
            if ref_at is None:
                with pytest.raises(RoutingError):
                    topo.attachment_at(terminal, r)
            else:
                assert topo.attachment_at(terminal, r) is ref_at
        for other in terminals:
            assert topo.destination_router(
                terminal, other
            ) == _ref_destination_router(topo, dist, terminal, other)


def _farthest_unlinked_pair(topo):
    dist = _bfs_dist(topo)
    n = topo.num_routers
    return max(
        ((a, b) for a in range(n) for b in range(a + 1, n) if not topo.has_link(a, b)),
        key=lambda ab: (dist[ab[0]][ab[1]], -ab[0], -ab[1]),
    )


def _farthest_router(topo, terminal):
    dist = _bfs_dist(topo)
    routers = set(topo.terminal_routers(terminal))
    return max(
        (r for r in range(topo.num_routers) if r not in routers),
        key=lambda r: (min(dist[a][r] for a in routers), -r),
    )


@pytest.mark.parametrize("routing", ["min", "ugal"])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_route_answers_match_recomputation_across_mutations(name, routing):
    topo = build_topology(name, SystemConfig(num_gpus=NUM_GPUS), include_cpu=True)
    policy = make_routing(routing, HOP_PS)
    _check(topo, policy)

    # A GPU gains an attachment far from its others: the nearest entry
    # (and exit) for routers around it, and its attachment index, change.
    topo.attach_terminal("gpu0", _farthest_router(topo, "gpu0"))
    _check(topo, policy)

    # A shortcut between the farthest unlinked routers changes distances.
    a, b = _farthest_unlinked_pair(topo)
    topo.add_link(a, b)
    _check(topo, policy)

    # An overlay chain leaves the router graph alone; the answers must
    # still be those of the current structure.
    topo.add_passthrough_chain("gpu1", 0, [0, topo.num_routers - 1])
    _check(topo, policy)
