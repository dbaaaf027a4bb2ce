"""Topology graph: routers (HMCs), channels, terminals, and routing tables.

A topology is a directed multigraph over router indices.  Terminals (GPUs and
the CPU) attach to routers through injection/ejection channels; the
"distribution" of a GPU's 8 channels across its 4 local HMCs (Section VI-A)
is modeled by one attachment per local HMC with ``width=2``.

Routing tables are all-pairs BFS next-hop sets computed once after
construction, plus the static routing answers derived from them (which
attachment is nearest a router, which router a terminal-to-terminal packet
heads for).  The topology owns all of them and forgets them whenever it
mutates; see :mod:`repro.network.routing` for the routing policies that
consume them.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import RoutingError, TopologyError
from .channel import Channel

UNREACHABLE = 1 << 30

#: One router of a minimal-path DAG with its minimal next hops toward the
#: DAG's destination (see :meth:`Topology.minimal_dag`).
MinimalDagStep = Tuple[int, List[Tuple[int, Channel]]]

#: One router of a costed minimal-path DAG: its minimal next hops, each
#: with the fixed cost of taking it (see :meth:`Topology.costed_dag`).
CostedDagStep = Tuple[int, Tuple[Tuple[int, Channel, int], ...]]

#: Warm store of all-pairs BFS distance tables, shared across Topology
#: instances in this process.  A sweep rebuilds the same few topology
#: shapes once per job; the distance table is a pure function of the
#: adjacency *structure* (names and channel objects don't enter it), so
#: a worker that has routed a shape before skips the BFS entirely.
#: ``_next_hops`` holds per-instance Channel objects and is always
#: rebuilt.  Tables are stored fully computed and never mutated.
_DIST_STORE: Dict[tuple, List[List[int]]] = {}
_DIST_STORE_MAX = 64
_dist_store_hits = 0


def dist_store_hits() -> int:
    """How many BFS table computations the warm store has skipped."""
    return _dist_store_hits


def reset_dist_store() -> None:
    """Drop the warm distance tables (tests)."""
    global _dist_store_hits
    _DIST_STORE.clear()
    _dist_store_hits = 0


@dataclass
class TerminalAttachment:
    """One (terminal, router) link pair."""

    terminal: str
    router: int
    inject: Channel
    eject: Channel


class Topology:
    """Routers + channels + terminal attachments + minimal routing tables."""

    def __init__(
        self,
        name: str,
        num_routers: int,
        cluster_of: Optional[Sequence[int]] = None,
        slice_of: Optional[Sequence[int]] = None,
        *,
        channel_gbps: float,
    ) -> None:
        if num_routers < 1:
            raise TopologyError("topology needs at least one router", topology=name)
        self.name = name
        self.num_routers = num_routers
        #: Which cluster (GPU/CPU locality domain) each router belongs to.
        self.cluster_of: List[int] = list(cluster_of) if cluster_of else [0] * num_routers
        #: Which slice (position within its cluster) each router belongs to.
        self.slice_of: List[int] = list(slice_of) if slice_of else [0] * num_routers
        self.channel_gbps = channel_gbps
        self.channels: List[Channel] = []
        #: adjacency: router -> list of (neighbor, channel)
        self.adj: List[List[Tuple[int, Channel]]] = [[] for _ in range(num_routers)]
        self.terminals: Dict[str, List[TerminalAttachment]] = {}
        #: Overlay pass-through chains: terminal -> slice -> ordered channel
        #: lists (forward direction); reverse channels are stored alongside.
        self.passthrough_chains: Dict[str, Dict[int, "PassthroughChain"]] = {}
        self._clear_routes()

        if len(self.cluster_of) != num_routers or len(self.slice_of) != num_routers:
            raise TopologyError("cluster/slice labels must cover all routers", topology=name)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_link(self, a: int, b: int, width: int = 1, gbps: Optional[float] = None) -> None:
        """Add a bidirectional router-router link (two directed channels)."""
        self._check_router(a)
        self._check_router(b)
        if a == b:
            raise TopologyError(f"self-link at router {a}", topology=self.name)
        rate = self.channel_gbps if gbps is None else gbps
        fwd = Channel(f"r{a}->r{b}", a, b, rate, width)
        rev = Channel(f"r{b}->r{a}", b, a, rate, width)
        self.channels.extend((fwd, rev))
        self.adj[a].append((b, fwd))
        self.adj[b].append((a, rev))
        self._clear_routes()

    def has_link(self, a: int, b: int) -> bool:
        return any(nbr == b for nbr, _ in self.adj[a])

    def attach_terminal(
        self, terminal: str, router: int, width: int = 1, gbps: Optional[float] = None
    ) -> TerminalAttachment:
        """Attach a terminal (GPU/CPU) to a router with inject/eject channels."""
        self._check_router(router)
        rate = self.channel_gbps if gbps is None else gbps
        inject = Channel(f"{terminal}->r{router}", terminal, router, rate, width)
        eject = Channel(f"r{router}->{terminal}", router, terminal, rate, width)
        att = TerminalAttachment(terminal, router, inject, eject)
        self.terminals.setdefault(terminal, []).append(att)
        self._clear_routes()
        return att

    def add_passthrough_chain(self, terminal: str, slice_id: int, routers: Sequence[int]) -> None:
        """Overlay a serial pass-through chain over ``routers`` for ``terminal``.

        Dedicated channels are created along the chain; the terminal's packets
        may ride them at pass-through latency (Section V-C).
        """
        for r in routers:
            self._check_router(r)
        if len(routers) < 1:
            raise TopologyError("pass-through chain needs >= 1 router", topology=self.name)
        forward: List[Channel] = []
        reverse: List[Channel] = []
        for a, b in zip(routers, routers[1:]):
            fwd = Channel(f"pt:{terminal}:s{slice_id}:r{a}->r{b}", a, b, self.channel_gbps, 1)
            rev = Channel(f"pt:{terminal}:s{slice_id}:r{b}->r{a}", b, a, self.channel_gbps, 1)
            self.channels.extend((fwd, rev))
            forward.append(fwd)
            reverse.append(rev)
        chain = PassthroughChain(list(routers), forward, reverse)
        self.passthrough_chains.setdefault(terminal, {})[slice_id] = chain
        self._clear_routes()

    # ------------------------------------------------------------------
    # Routing tables
    # ------------------------------------------------------------------
    def _clear_routes(self) -> None:
        """Forget the routing tables and every memoized routing answer.

        Every mutator calls this, so the memos are always those of the
        current structure; a topology that stops mutating keeps them.
        """
        self._dist: Optional[List[List[int]]] = None
        self._next_hops: Optional[List[List[List[Tuple[int, Channel]]]]] = None
        self._dags: Dict[Tuple[int, int], Tuple[MinimalDagStep, ...]] = {}
        self._costed_dags: Dict[Tuple[int, int, int, int], Tuple[CostedDagStep, ...]] = {}
        self._att_index: Optional[Dict[Tuple[str, int], TerminalAttachment]] = None
        self._nearest: Dict[Tuple[str, int], TerminalAttachment] = {}
        self._dst_routers: Dict[Tuple[str, str], int] = {}

    def _structure_key(self) -> tuple:
        """The adjacency structure as a hashable key: distances depend
        only on which routers neighbor which (multiplicity preserved for
        exactness, though parallel links cannot change a distance)."""
        return (
            self.num_routers,
            tuple(
                tuple(sorted(nbr for nbr, _ in row)) for row in self.adj
            ),
        )

    def _compute_tables(self) -> None:
        global _dist_store_hits
        n = self.num_routers
        key = self._structure_key()
        dist = _DIST_STORE.get(key)
        if dist is None:
            dist = [[UNREACHABLE] * n for _ in range(n)]
            for src in range(n):
                dist[src][src] = 0
                queue = collections.deque([src])
                while queue:
                    u = queue.popleft()
                    for v, _ in self.adj[u]:
                        if dist[src][v] == UNREACHABLE:
                            dist[src][v] = dist[src][u] + 1
                            queue.append(v)
            if len(_DIST_STORE) >= _DIST_STORE_MAX:
                _DIST_STORE.pop(next(iter(_DIST_STORE)))
            _DIST_STORE[key] = dist
        else:
            _dist_store_hits += 1
        next_hops: List[List[List[Tuple[int, Channel]]]] = [
            [[] for _ in range(n)] for _ in range(n)
        ]
        for cur in range(n):
            for dst in range(n):
                if cur == dst or dist[cur][dst] == UNREACHABLE:
                    continue
                hops = [
                    (nbr, ch)
                    for nbr, ch in self.adj[cur]
                    if dist[nbr][dst] == dist[cur][dst] - 1
                ]
                next_hops[cur][dst] = hops
        self._dist = dist
        self._next_hops = next_hops

    @property
    def dist(self) -> List[List[int]]:
        if self._dist is None:
            self._compute_tables()
        assert self._dist is not None
        return self._dist

    def distance(self, a: int, b: int) -> int:
        return self.dist[a][b]

    def minimal_next_hops(self, cur: int, dst: int) -> List[Tuple[int, Channel]]:
        if self._next_hops is None:
            self._compute_tables()
        assert self._next_hops is not None
        hops = self._next_hops[cur][dst]
        if cur != dst and not hops:
            raise RoutingError(
                f"no route from router {cur} to {dst}", topology=self.name
            )
        return hops

    def minimal_dag(self, start: int, dst: int) -> Tuple[MinimalDagStep, ...]:
        """The minimal-path DAG from ``start`` to ``dst``: every router on
        some minimal path except ``dst`` itself, each with its
        :meth:`minimal_next_hops`, nearest ``dst`` first (``start`` last).

        Walking it in order visits every router after all of its next
        hops, so a cost toward ``dst`` is one pass with no recursion.
        Empty when ``start == dst``; raises :class:`RoutingError` when
        ``dst`` is unreachable from ``start``.
        """
        key = (start, dst)
        dag = self._dags.get(key)
        if dag is None:
            seen = {start}
            frontier = [start] if start != dst else []
            steps: List[MinimalDagStep] = []
            while frontier:
                level = []
                for router in frontier:
                    hops = self.minimal_next_hops(router, dst)
                    steps.append((router, hops))
                    for nbr, _ in hops:
                        if nbr != dst and nbr not in seen:
                            seen.add(nbr)
                            level.append(nbr)
                frontier = level
            # Every minimal hop lowers the distance to ``dst`` by one, so
            # the BFS levels are the distance classes; reversing them puts
            # each router after its next hops.
            steps.reverse()
            dag = self._dags[key] = tuple(steps)
        return dag

    def costed_dag(
        self, start: int, dst: int, size_bytes: int, hop_ps: int
    ) -> Tuple[CostedDagStep, ...]:
        """:meth:`minimal_dag` with each next hop ``(nbr, ch)`` extended to
        ``(nbr, ch, fixed_ps)``: the serialization of ``size_bytes`` on
        ``ch`` plus ``hop_ps``, what crossing ``ch`` costs beyond its queue.
        """
        key = (start, dst, size_bytes, hop_ps)
        dag = self._costed_dags.get(key)
        if dag is None:
            dag = self._costed_dags[key] = tuple(
                (
                    router,
                    tuple(
                        (nbr, ch, ch.serialization_ps(size_bytes) + hop_ps)
                        for nbr, ch in hops
                    ),
                )
                for router, hops in self.minimal_dag(start, dst)
            )
        return dag

    def reachable(self, a: int, b: int) -> bool:
        return self.dist[a][b] < UNREACHABLE

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def attachments(self, terminal: str) -> List[TerminalAttachment]:
        try:
            return self.terminals[terminal]
        except KeyError:
            raise TopologyError(
                f"unknown terminal {terminal!r}", topology=self.name
            ) from None

    def terminal_routers(self, terminal: str) -> List[int]:
        return [att.router for att in self.attachments(terminal)]

    def attachment_at(self, terminal: str, router: int) -> TerminalAttachment:
        """The attachment of ``terminal`` at ``router`` (first match wins).

        Indexed lookup over a ``(terminal, router)`` dict; semantics match
        a linear first-match scan of :meth:`attachments`.
        """
        index = self._att_index
        if index is None:
            index = {}
            for atts in self.terminals.values():
                for att in atts:
                    index.setdefault((att.terminal, att.router), att)
            self._att_index = index
        try:
            return index[(terminal, router)]
        except KeyError:
            raise RoutingError(
                f"{terminal} is not attached to router {router}"
            ) from None

    def nearest_attachment(self, terminal: str, router: int) -> TerminalAttachment:
        """The terminal's attachment closest to ``router`` (the first
        minimum in attachment order).

        One table answers both directions: :meth:`add_link` is the only
        constructor of router edges and always adds both, so ``dist`` is
        symmetric and the nearest entry toward ``router`` is also the
        nearest exit from it.
        """
        key = (terminal, router)
        att = self._nearest.get(key)
        if att is None:
            row = self.dist[router]
            att = min(self.attachments(terminal), key=lambda a: row[a.router])
            self._nearest[key] = att
        return att

    def destination_router(self, src_terminal: str, dst_terminal: str) -> int:
        """The router a ``src_terminal`` -> ``dst_terminal`` packet heads
        for: the destination attachment nearest any source attachment
        (first minimum in attachment order)."""
        key = (src_terminal, dst_terminal)
        router = self._dst_routers.get(key)
        if router is None:
            router = min(
                self.terminal_routers(dst_terminal),
                key=lambda r: self.terminal_distance(src_terminal, r),
            )
            self._dst_routers[key] = router
        return router

    def terminal_distance(self, terminal: str, router: int) -> int:
        """Minimum network distance from any of the terminal's routers."""
        return self.dist[self.nearest_attachment(terminal, router).router][router]

    def all_channels(self) -> List[Channel]:
        """Every channel of the network, each once: the router links
        (pass-through overlay included), then each terminal attachment's
        inject and eject channels.  This is the Fig. 17 energy scope."""
        channels = list(self.channels)
        for atts in self.terminals.values():
            for att in atts:
                channels.extend((att.inject, att.eject))
        return channels

    def count_network_links(self) -> int:
        """Number of bidirectional router-router links (Fig. 12 metric).

        Pass-through overlay channels are dedicated CPU channels and are
        counted separately by :meth:`count_passthrough_links`.
        """
        directed = sum(
            1 for ch in self.channels if not ch.name.startswith("pt:")
        )
        return directed // 2

    def count_passthrough_links(self) -> int:
        directed = sum(1 for ch in self.channels if ch.name.startswith("pt:"))
        return directed // 2

    def router_degree(self, router: int) -> int:
        """Network channel count at a router, including terminal links."""
        network = len(self.adj[router])
        terminal = sum(
            att.inject.width
            for atts in self.terminals.values()
            for att in atts
            if att.router == router
        )
        return network + terminal

    # ------------------------------------------------------------------
    def _check_router(self, r: int) -> None:
        if not 0 <= r < self.num_routers:
            raise TopologyError(
                f"router index {r} out of range [0, {self.num_routers})",
                topology=self.name,
            )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Topology({self.name}: {self.num_routers} routers, "
            f"{self.count_network_links()} links, "
            f"{len(self.terminals)} terminals)"
        )


@dataclass
class PassthroughChain:
    """An ordered pass-through path with dedicated forward/reverse channels."""

    routers: List[int]
    forward: List[Channel]
    reverse: List[Channel]

    def index_of(self, router: int) -> int:
        try:
            return self.routers.index(router)
        except ValueError:
            raise RoutingError(f"router {router} not on pass-through chain") from None

    def hops_to(self, router: int) -> List[Channel]:
        """Channels from the chain head to ``router`` (forward direction)."""
        return self.forward[: self.index_of(router)]

    def hops_from(self, router: int) -> List[Channel]:
        """Channels from ``router`` back to the chain head."""
        return list(reversed(self.reverse[: self.index_of(router)]))
