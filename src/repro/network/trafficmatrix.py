"""The shared traffic-matrix abstraction (ROADMAP: analytic tier).

A :class:`TrafficMatrix` is the fabric-independent description of offered
load: how many requests, and how many request/response bytes, each source
terminal sends toward each destination (an HMC router for memory requests,
or a terminal for forwarded transfers).  The analytic tier fills one with
its predicted request packets, and the Fig. 10 style ``[terminal][router]``
byte matrix is one view of it (:meth:`TrafficMatrix.bytes_matrix`), so
measured and predicted traffic can be compared in the same format.

:class:`FlowRouter` routes flows minimally over a
:class:`~repro.network.topology.Topology`, splitting each flow evenly
across the minimal injection attachments and minimal next hops — the
closed-form analogue of the packet engine's adaptive tie-breaking.  Its
per-byte channel spread of a ``(source, destination)`` flow
(:meth:`FlowRouter.flow_unit_loads`) is the load model behind the
analytic tier's M/D/1 channel estimates and its Fig. 17 energy.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple, Union

from .channel import Channel
from .topology import Topology

#: A flow destination: an HMC router id (memory request) or a terminal
#: name (forwarded transfer / response sink).
Destination = Union[int, str]


class TrafficMatrix:
    """Per source->destination request/byte rates over ``num_routers``."""

    def __init__(self, num_routers: int) -> None:
        self.num_routers = num_routers
        # (src, dst) -> [requests, request_bytes, response_bytes]
        self._flows: Dict[Tuple[str, Destination], List[float]] = {}

    # ------------------------------------------------------------------
    def add(
        self,
        src: str,
        dst: Destination,
        requests: float = 1.0,
        request_bytes: float = 0.0,
        response_bytes: float = 0.0,
    ) -> None:
        """Accumulate traffic onto the (src, dst) flow."""
        if isinstance(dst, int) and not 0 <= dst < self.num_routers:
            raise ValueError(f"destination router {dst} outside [0, {self.num_routers})")
        cell = self._flows.get((src, dst))
        if cell is None:
            self._flows[(src, dst)] = [requests, request_bytes, response_bytes]
        else:
            cell[0] += requests
            cell[1] += request_bytes
            cell[2] += response_bytes

    # ------------------------------------------------------------------
    def bytes_matrix(self, terminals: Iterable[str]) -> List[List[int]]:
        """Request bytes from each terminal to each router, in the Fig. 10
        format of :meth:`repro.network.network.MemoryNetwork.traffic_matrix`
        (router-destined requests only, like the measured matrix)."""
        return [
            [
                int(round(self._flows.get((t, r), (0.0, 0.0))[1]))
                for r in range(self.num_routers)
            ]
            for t in terminals
        ]


# ---------------------------------------------------------------------------
# Minimal-path flow routing
# ---------------------------------------------------------------------------
class FlowRouter:
    """Routes flows over a topology in closed form.

    Every flow is spread evenly across its minimal injection attachments
    and, recursively, across the minimal next hops at every router — the
    expected-value analogue of the packet engine's tie-breaking.  Path
    spreads are memoized per (router, router) pair and unit spreads per
    flow, so each flow is routed once per topology.
    """

    def __init__(self, topo: Topology) -> None:
        self.topo = topo
        self._path_memo: Dict[Tuple[int, int], Dict[Channel, float]] = {}
        self._unit_memo: Dict[
            Tuple[str, Union[int, str]],
            Tuple[Dict[Channel, float], Dict[Channel, float]],
        ] = {}

    # -- attachment selection -------------------------------------------
    def injection_attachments(self, terminal: str, dst_router: int):
        """The minimal-distance attachments ``terminal`` would inject at."""
        atts = self.topo.attachments(terminal)
        best = min(self.topo.distance(a.router, dst_router) for a in atts)
        return [a for a in atts if self.topo.distance(a.router, dst_router) == best]

    def ejection_attachments(self, router: int, terminal: str):
        """The minimal-distance attachments a packet at ``router`` would
        eject through to reach ``terminal``."""
        atts = self.topo.attachments(terminal)
        best = min(self.topo.distance(router, a.router) for a in atts)
        return [a for a in atts if self.topo.distance(router, a.router) == best]

    # -- path spreading --------------------------------------------------
    def path_channels(self, a: int, b: int) -> Dict[Channel, float]:
        """Expected traversals of each channel on minimal a->b paths, with
        even splits at every branch (total fractions sum to distance)."""
        if a == b:
            return {}
        memo = self._path_memo
        cached = memo.get((a, b))
        if cached is not None:
            return cached
        spread: Dict[Channel, float] = {}
        hops = self.topo.minimal_next_hops(a, b)
        frac = 1.0 / len(hops)
        for nbr, ch in hops:
            spread[ch] = spread.get(ch, 0.0) + frac
            for ch2, f2 in self.path_channels(nbr, b).items():
                spread[ch2] = spread.get(ch2, 0.0) + frac * f2
        memo[(a, b)] = spread
        return spread

    # -- load accumulation ----------------------------------------------
    def flow_unit_loads(
        self, src: str, dst: Union[int, str]
    ) -> Tuple[Dict[Channel, float], Dict[Channel, float]]:
        """Per-byte channel traversals of one ``(src, dst)`` flow,
        memoized: the request spread (inject, minimal paths, far-end
        eject for terminal destinations) and the response spread (back
        from the destination router to the source's ejection points).
        A flow's byte counts scale these without re-routing."""
        key = (src, dst)
        cached = self._unit_memo.get(key)
        if cached is not None:
            return cached
        request: Dict[Channel, float] = {}
        response: Dict[Channel, float] = {}

        def put(loads: Dict[Channel, float], channel: Channel, amount: float) -> None:
            if amount:
                loads[channel] = loads.get(channel, 0.0) + amount

        dst_router = (
            dst if isinstance(dst, int) else self.topo.destination_router(src, dst)
        )
        # Request: inject at the minimal attachments, spread to dst.
        atts = self.injection_attachments(src, dst_router)
        share = 1.0 / len(atts)
        for att in atts:
            put(request, att.inject, share)
            for ch, frac in self.path_channels(att.router, dst_router).items():
                put(request, ch, share * frac)
        if isinstance(dst, str):
            # Terminal-destined: the request also ejects at the far end.
            eatts = self.ejection_attachments(dst_router, dst)
            eshare = 1.0 / len(eatts)
            for att in eatts:
                put(request, att.eject, eshare)
        # Response: back from the destination router to the source.
        eatts = self.ejection_attachments(dst_router, src)
        eshare = 1.0 / len(eatts)
        for att in eatts:
            for ch, frac in self.path_channels(dst_router, att.router).items():
                put(response, ch, eshare * frac)
            put(response, att.eject, eshare)
        self._unit_memo[key] = (request, response)
        return request, response
