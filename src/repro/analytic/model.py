"""The analytic capacity model (fidelity tier ``analytic``).

Predicts a :class:`~repro.system.metrics.RunResult` without running the
event engine.  The pipeline:

1. :func:`~repro.analytic.profile.profile_workload` reduces the workload
   to per-kernel traffic averages plus a distinct-line power law (the
   L2-filtered read footprint) and exact host-step walks.
2. Page placement becomes a destination-cluster *fraction* per requester
   instead of a per-page draw; traffic to each cluster follows the same
   per-organization transport the fabrics implement (direct links, the
   PCIe switch, PCN links, or memory-network legs routed with
   :class:`~repro.network.trafficmatrix.FlowRouter` over the real
   topology builders).
3. Contention is M/D/1: every channel class and every cluster's vaults
   accumulate service demand; utilization against the current kernel-time
   estimate yields a queueing wait ``W = rho * S / (2 * (1 - rho))``,
   folded back into the per-phase latency over a short fixed point.
4. Each GPU's kernel time is a roofline: the max of its compute-bound,
   latency-bound (waves of resident CTAs exposed to the per-phase memory
   latency), and the system-wide bandwidth bound.
5. :mod:`~repro.analytic.calibrate` scales the raw estimates with
   committed per-architecture coefficients.

Known blind spots (see docs/performance.md): adaptive/UGAL routing, the
pass-through overlay, deep saturation beyond the M/D/1 regime, and
multi-tenant interference between concurrent kernels on different GPUs
beyond shared-resource queueing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from ..config import SystemConfig
from ..errors import ConfigError, SimulationError
from ..hmc.vault import ATOMIC_ALU_PS
from ..network.packet import (
    PacketKind,
    request_size_bytes,
    response_kind,
    response_size_bytes,
)
from ..network.topologies import build_cmn, build_topology
from ..network.trafficmatrix import FlowRouter, TrafficMatrix
from ..system.configs import ArchSpec, Organization, TransferMode
from ..system.energy import EnergyBreakdown
from ..system.fabric.base import GPU_FORWARD_PS
from ..system.memcpy import memcpy_time_ps
from ..system.metrics import RunResult
from ..units import bytes_per_ps
from ..workloads.base import Workload
from .calibrate import Calibration, calibration_key, load_calibration
from .profile import GPU_LINE_BYTES, WorkloadProfile, profile_workload

#: Expected DRAM row-hit rate.  Random frame placement plus the paper's
#: line-interleaved mapping (one line per (LC, VL) combo within a page)
#: leave almost no row locality; the calibration layer absorbs the rest.
ROW_HIT_EST = 0.05

#: Utilization cap for the M/D/1 wait term — beyond this the closed form
#: diverges and the bandwidth roofline is the binding constraint anyway.
RHO_CAP = 0.95

#: Rounds of the kernel-time <-> queueing-wait fixed point.
FIXED_POINT_ROUNDS = 3

_KIND_REQ = {
    "read": PacketKind.READ_REQ,
    "write": PacketKind.WRITE_REQ,
    "atomic": PacketKind.ATOMIC_REQ,
}


def _packet_sizes(kind: str, size: int, header: int) -> Tuple[int, int]:
    """(request, response) bytes of one access on a packetized link."""
    req_kind = _KIND_REQ[kind]
    data = 0 if req_kind is PacketKind.READ_REQ else size
    req = request_size_bytes(req_kind, data, header)
    resp_kind = response_kind(req_kind)
    rdata = 0 if resp_kind is PacketKind.WRITE_ACK else size
    resp = response_size_bytes(resp_kind, rdata, header)
    return req, resp


def partition_chunks(num_ctas: int, num_gpus: int) -> List[int]:
    """Chunk sizes of the static CTA partitioner: contiguous chunks, the
    first ``num_ctas % num_gpus`` GPUs take one extra CTA."""
    base, extra = divmod(num_ctas, num_gpus)
    return [base + (1 if g < extra else 0) for g in range(num_gpus)]


def _ser_ps(num_bytes: float, gbps: float) -> float:
    """Serialization delay, mirroring ``Channel.transmit`` rounding."""
    if num_bytes <= 0:
        return 0.0
    return max(1.0, num_bytes / bytes_per_ps(gbps))


# ---------------------------------------------------------------------------
# Contention bookkeeping
# ---------------------------------------------------------------------------
class _Resource:
    """One queued resource class: ``servers`` parallel servers sharing the
    demand accumulated by :meth:`add`."""

    __slots__ = ("servers", "demand_ps", "service_sum", "visits")

    def __init__(self, servers: int) -> None:
        self.servers = max(1, servers)
        self.demand_ps = 0.0
        self.service_sum = 0.0
        self.visits = 0.0

    def add(self, count: float, service_ps: float) -> None:
        self.demand_ps += count * service_ps
        self.service_sum += count * service_ps
        self.visits += count

    @property
    def busy_bound_ps(self) -> float:
        """Time to drain the demand at full parallelism (roofline term)."""
        return self.demand_ps / self.servers

    def wait_ps(self, window_ps: float) -> float:
        """M/D/1 queueing wait per visit at the given window."""
        if self.visits <= 0 or window_ps <= 0:
            return 0.0
        rho = min(RHO_CAP, self.demand_ps / (window_ps * self.servers))
        mean_service = self.service_sum / self.visits
        return rho * mean_service / (2.0 * (1.0 - rho))


@dataclass(frozen=True)
class _NetLeg:
    """One network packet traversal of a route (request or response)."""

    hops: float
    fixed_ps: float
    #: Channel traversals subject to queueing (inject + hops [+ eject]).
    wait_hops: float


@dataclass
class _Route:
    """Transport plan of one access class, excluding the vault."""

    fixed_ps: float = 0.0
    #: (resource key, servers, service_ps) per request.
    visits: List[Tuple[str, int, float]] = field(default_factory=list)
    legs: List[_NetLeg] = field(default_factory=list)
    #: Net flows, one tuple per request: (src, dst, share, req_b, resp_b).
    flows: List[Tuple[str, object, float, float, float]] = field(
        default_factory=list
    )

    def latency_ps(
        self, waits: Dict[str, float], hop_wait_ps: float
    ) -> float:
        total = self.fixed_ps
        for key, _, _ in self.visits:
            total += waits.get(key, 0.0)
        for leg in self.legs:
            total += leg.fixed_ps + leg.wait_hops * hop_wait_ps
        return total


# ---------------------------------------------------------------------------
# The model
# ---------------------------------------------------------------------------
#: Process-wide memo of capacity models.  A model is immutable after
#: construction apart from its route cache, so a sweep's 14 workloads on
#: the same architecture share one topology build, flow router, and
#: route/path cache instead of recomputing them per point.
_MODEL_CACHE: Dict[Any, "_CapacityModel"] = {}
_MODEL_CACHE_MAX = 128


def _model_for(
    spec: ArchSpec,
    cfg: SystemConfig,
    placement_policy: str,
    placement_clusters: Optional[List[int]],
    placement_weights: Optional[List[float]],
) -> "_CapacityModel":
    key = (
        spec,
        cfg,
        placement_policy,
        tuple(placement_clusters) if placement_clusters is not None else None,
        tuple(placement_weights) if placement_weights is not None else None,
    )
    model = _MODEL_CACHE.get(key)
    if model is None:
        if len(_MODEL_CACHE) >= _MODEL_CACHE_MAX:
            _MODEL_CACHE.clear()
        model = _CapacityModel(
            spec, cfg, placement_policy, placement_clusters, placement_weights
        )
        _MODEL_CACHE[key] = model
    return model


#: Process-wide memo of workload profiles, keyed by the (frozen, hashable)
#: :class:`~repro.system.spec.WorkloadRef` recipe.  A profile depends on
#: nothing but the workload the recipe builds, and a sweep asks for the
#: same workload on every architecture, so each recipe is built and
#: profiled once.  Like the model memo it holds only immutable values
#: derived from an immutable key, never run state.
_PROFILE_CACHE: Dict[Any, WorkloadProfile] = {}
_PROFILE_CACHE_MAX = 256


def profile_for(ref) -> Any:
    """The memoized :class:`WorkloadProfile` of ``ref``'s workload.

    A recipe that does not build a :class:`~repro.workloads.base.Workload`
    (an :class:`~repro.network.traffic.OfferedLoad` factory, which runs
    network-only) is neither profiled nor memoized: the built object
    itself is returned.
    """
    profile = _PROFILE_CACHE.get(ref)
    if profile is None:
        workload = ref.build()
        if not isinstance(workload, Workload):
            return workload
        # Looked up by name at call time, so a wrapper bound to this
        # module's ``profile_workload`` sees every miss.
        profile = profile_workload(workload)
        if len(_PROFILE_CACHE) >= _PROFILE_CACHE_MAX:
            _PROFILE_CACHE.clear()
        _PROFILE_CACHE[ref] = profile
    return profile


class _CapacityModel:
    def __init__(
        self,
        spec: ArchSpec,
        cfg: SystemConfig,
        placement_policy: str,
        placement_clusters: Optional[List[int]],
        placement_weights: Optional[List[float]],
    ) -> None:
        self.spec = spec
        self.cfg = cfg
        self.org = spec.organization
        self.num_gpus = cfg.num_gpus
        self.hmcs_per_cluster = cfg.gpu.hmcs_per_gpu
        self.cpu_cluster = cfg.num_gpus
        self.netcfg = cfg.network
        self.vaults_per_cluster = (
            self.hmcs_per_cluster * cfg.hmc.num_vaults
        )
        self._route_cache: Dict[Tuple[str, int, int, str, int], _Route] = {}

        self.topo = self._build_topology()
        self.flow_router = FlowRouter(self.topo) if self.topo else None

        clusters = (
            list(placement_clusters)
            if placement_clusters is not None
            else self._data_clusters()
        )
        self.placement_policy = placement_policy
        self.placement_clusters = clusters
        if placement_policy == "weighted":
            if placement_weights is None or len(placement_weights) != len(clusters):
                raise ConfigError(
                    "weighted placement needs one weight per cluster"
                )
            total = float(sum(placement_weights))
            if total <= 0:
                raise ConfigError("weights must sum to a positive value")
            self._weights = [w / total for w in placement_weights]
        elif placement_policy in ("random", "round_robin", "local", "first_touch"):
            self._weights = None
            if placement_policy == "local" and len(clusters) != 1:
                raise ConfigError("local placement takes exactly one cluster")
        else:
            raise ConfigError(f"unknown placement policy {placement_policy!r}")

    # -- system shape ----------------------------------------------------
    def _data_clusters(self) -> List[int]:
        if self.spec.transfer is TransferMode.MEMCPY:
            return list(range(self.num_gpus))
        if self.spec.transfer is TransferMode.ZERO_COPY:
            return [self.cpu_cluster]
        return list(range(self.num_gpus + 1))

    def _build_topology(self):
        cfg = self.cfg
        if self.org is Organization.CMN:
            return build_cmn(
                self.num_gpus,
                hmcs_per_cpu=self.hmcs_per_cluster,
                channel_gbps=self.netcfg.channel_gbps,
                cpu_channels=cfg.cpu.num_channels,
            )
        if self.org is Organization.GMN:
            return build_topology(
                self.spec.topology,
                num_gpus=self.num_gpus,
                hmcs_per_gpu=self.hmcs_per_cluster,
                include_cpu=False,
                channel_gbps=self.netcfg.channel_gbps,
                gpu_channels=cfg.gpu.num_channels,
            )
        if self.org is Organization.UMN:
            return build_topology(
                self.spec.topology,
                num_gpus=self.num_gpus,
                hmcs_per_gpu=self.hmcs_per_cluster,
                include_cpu=True,
                channel_gbps=self.netcfg.channel_gbps,
                gpu_channels=cfg.gpu.num_channels,
                cpu_channels=cfg.cpu.num_channels,
            )
        if self.org in (Organization.PCIE, Organization.PCN):
            return None
        raise ConfigError(
            f"no analytic model for organization {self.org!r}; "
            "use the packet or flit tier"
        )

    def placement_fractions(self, requester_cluster: int) -> Dict[int, float]:
        """Fraction of the requester's pages backed by each cluster."""
        clusters = self.placement_clusters
        if self.placement_policy == "local":
            return {clusters[0]: 1.0}
        if self.placement_policy == "weighted":
            return {
                c: w for c, w in zip(clusters, self._weights) if w > 0.0
            }
        if self.placement_policy == "first_touch":
            if requester_cluster in clusters:
                return {requester_cluster: 1.0}
        # random / round_robin / first_touch fallback: uniform.
        share = 1.0 / len(clusters)
        return {c: share for c in clusters}

    def host_fractions(self) -> Dict[int, float]:
        """Destination fractions of host accesses (after the host view:
        under memcpy transfer the host works on its CPU-memory copy)."""
        if self.spec.transfer is TransferMode.MEMCPY:
            return {self.cpu_cluster: 1.0}
        return self.placement_fractions(self.cpu_cluster)

    # -- transport building blocks --------------------------------------
    def _dlink_width(self, terminal: str) -> int:
        channels = (
            self.cfg.cpu.num_channels
            if terminal == "cpu"
            else self.cfg.gpu.num_channels
        )
        return max(1, channels // self.hmcs_per_cluster)

    def _direct(self, route: _Route, terminal: str, kind: str, size: int) -> None:
        req_b, resp_b = _packet_sizes(kind, size, self.netcfg.header_bytes)
        gbps = self.netcfg.channel_gbps * self._dlink_width(terminal)
        ser_req = _ser_ps(req_b, gbps)
        ser_resp = _ser_ps(resp_b, gbps)
        route.fixed_ps += 2 * self.netcfg.serdes_ps + ser_req + ser_resp
        h = self.hmcs_per_cluster
        route.visits.append((f"dlink:{terminal}:req", h, ser_req))
        route.visits.append((f"dlink:{terminal}:resp", h, ser_resp))

    def _pcie_txn(self, route: _Route, src: str, dst: str, payload: float) -> None:
        size = payload + self.cfg.pcie.header_bytes
        ser = _ser_ps(size, self.cfg.pcie.gbps)
        route.fixed_ps += self.cfg.pcie.latency_ps + 2 * ser
        route.visits.append((f"pcie:up:{src}", 1, ser))
        route.visits.append((f"pcie:down:{dst}", 1, ser))

    def _pcie_forwarded(
        self, route: _Route, terminal: str, owner: str, kind: str, size: int
    ) -> None:
        req_b, resp_b = _packet_sizes(kind, size, self.netcfg.header_bytes)
        self._pcie_txn(route, terminal, owner, req_b)
        route.fixed_ps += 2 * GPU_FORWARD_PS
        self._direct(route, owner, kind, size)
        self._pcie_txn(route, owner, terminal, resp_b)

    def _pcn_txn(self, route: _Route, src: str, dst: str, payload: float) -> None:
        cfg = self.cfg.pcn
        width = (
            cfg.cpu_links_per_gpu if "cpu" in (src, dst) else cfg.links_per_pair
        )
        size = payload + cfg.header_bytes
        ser = _ser_ps(size, cfg.link_gbps * width)
        route.fixed_ps += cfg.latency_ps + ser
        route.visits.append((f"pcn:{src}>{dst}", 1, ser))

    def _pcn_forwarded(
        self, route: _Route, terminal: str, owner: str, kind: str, size: int
    ) -> None:
        req_b, resp_b = _packet_sizes(kind, size, self.netcfg.header_bytes)
        self._pcn_txn(route, terminal, owner, req_b)
        route.fixed_ps += 2 * GPU_FORWARD_PS
        self._direct(route, owner, kind, size)
        self._pcn_txn(route, owner, terminal, resp_b)

    # -- network legs ----------------------------------------------------
    def _cluster_routers(self, cluster: int) -> List[int]:
        h = self.hmcs_per_cluster
        if self.org is Organization.CMN:
            # The CMN's routers are the CPU's local HMCs (indices 0..H-1).
            return list(range(h))
        return [cluster * h + lc for lc in range(h)]

    def _net_request(
        self, route: _Route, terminal: str, cluster: int, kind: str, size: int
    ) -> None:
        """A memory request over the network to one of the destination
        cluster's HMC routers (line interleaving spreads them evenly)."""
        fr = self.flow_router
        net = self.netcfg
        req_b, resp_b = _packet_sizes(kind, size, net.header_bytes)
        ser_req = _ser_ps(req_b, net.channel_gbps)
        ser_resp = _ser_ps(resp_b, net.channel_gbps)
        switch_ps = net.pipeline_stages * net.router_cycle_ps
        routers = self._cluster_routers(cluster)
        share = 1.0 / len(routers)
        d_req = sum(fr.request_distance(terminal, r) for r in routers) / len(routers)
        d_resp = sum(fr.response_distance(r, terminal) for r in routers) / len(routers)
        route.legs.append(
            _NetLeg(
                hops=1 + d_req,
                fixed_ps=(
                    net.serdes_ps
                    + ser_req
                    + d_req * (net.hop_latency_ps + ser_req)
                    + switch_ps
                ),
                wait_hops=1 + d_req,
            )
        )
        route.legs.append(
            _NetLeg(
                hops=d_resp + 1,
                fixed_ps=(
                    d_resp * (net.hop_latency_ps + ser_resp)
                    + net.serdes_ps
                    + ser_resp
                ),
                wait_hops=d_resp + 1,
            )
        )
        for r in routers:
            route.flows.append(
                (terminal, r, share, share * req_b, share * resp_b)
            )

    def _net_terminal_leg(
        self, route: _Route, src: str, dst_terminal: str, payload: float
    ) -> None:
        """One terminal-to-terminal packet (forwarded request or reply)."""
        fr = self.flow_router
        net = self.netcfg
        ser = _ser_ps(payload, net.channel_gbps)
        dst_router = fr.destination_router(src, dst_terminal)
        d = fr.request_distance(src, dst_router)
        route.legs.append(
            _NetLeg(
                hops=d + 2,
                fixed_ps=(
                    net.serdes_ps
                    + ser
                    + d * (net.hop_latency_ps + ser)
                    + net.serdes_ps
                    + ser
                ),
                wait_hops=d + 2,
            )
        )

    def _net_forwarded(
        self, route: _Route, terminal: str, owner: str, kind: str, size: int
    ) -> None:
        """CMN remote-GPU path: forward over the net to the owning GPU,
        traverse it, access its local memory, reply over the net."""
        req_b, resp_b = _packet_sizes(kind, size, self.netcfg.header_bytes)
        self._net_terminal_leg(route, terminal, owner, req_b)
        route.fixed_ps += 2 * GPU_FORWARD_PS
        self._direct(route, owner, kind, size)
        self._net_terminal_leg(route, owner, terminal, resp_b)
        route.flows.append((terminal, owner, 1.0, req_b, resp_b))

    # -- per-organization dispatch --------------------------------------
    def route(
        self, terminal: str, terminal_cluster: int, cluster: int, kind: str, size: int
    ) -> _Route:
        key = (terminal, terminal_cluster, cluster, kind, size)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        route = _Route()
        org = self.org
        own = cluster == terminal_cluster
        if org in (Organization.PCIE, Organization.PCN):
            if own:
                self._direct(route, terminal, kind, size)
            else:
                owner = (
                    "cpu" if cluster == self.cpu_cluster else f"gpu{cluster}"
                )
                if org is Organization.PCIE:
                    self._pcie_forwarded(route, terminal, owner, kind, size)
                else:
                    self._pcn_forwarded(route, terminal, owner, kind, size)
        elif org is Organization.CMN:
            if cluster == self.cpu_cluster:
                self._net_request(route, terminal, cluster, kind, size)
            elif own and terminal != "cpu":
                self._direct(route, terminal, kind, size)
            else:
                self._net_forwarded(route, terminal, f"gpu{cluster}", kind, size)
        elif org is Organization.GMN:
            if cluster == self.cpu_cluster:
                if terminal == "cpu":
                    self._direct(route, terminal, kind, size)
                else:
                    self._pcie_forwarded(route, terminal, "cpu", kind, size)
            elif terminal == "cpu":
                self._pcie_forwarded(route, terminal, f"gpu{cluster}", kind, size)
            else:
                self._net_request(route, terminal, cluster, kind, size)
        elif org is Organization.UMN:
            self._net_request(route, terminal, cluster, kind, size)
        else:  # pragma: no cover - _build_topology already rejected it
            raise ConfigError(f"no analytic model for organization {org!r}")
        # Every path ends in one vault access at the destination cluster.
        timing = self.cfg.hmc.timing
        cycles = max(1, -(-size // self.cfg.hmc.vault_bus_bytes_per_cycle))
        transfer = cycles * timing.tCK_ps
        route.fixed_ps += self._dram_latency_ps(kind) + transfer
        route.visits.append(
            (f"vault:{cluster}", self.vaults_per_cluster, transfer)
        )
        self._route_cache[key] = route
        return route

    def _dram_latency_ps(self, kind: str) -> float:
        timing = self.cfg.hmc.timing
        base = ROW_HIT_EST * timing.hit_ps + (1.0 - ROW_HIT_EST) * 0.5 * (
            timing.empty_ps + timing.conflict_ps
        )
        if kind == "atomic":
            base += ATOMIC_ALU_PS
        return base


# ---------------------------------------------------------------------------
# Accumulators shared by the kernel and host estimators
# ---------------------------------------------------------------------------
class _NetStats:
    __slots__ = ("delivered", "latency_sum", "hops_sum")

    def __init__(self) -> None:
        self.delivered = 0.0
        self.latency_sum = 0.0
        self.hops_sum = 0.0

    def account(
        self, route: _Route, count: float, hop_wait_ps: float
    ) -> None:
        for leg in route.legs:
            self.delivered += count
            self.latency_sum += count * (
                leg.fixed_ps + leg.wait_hops * hop_wait_ps
            )
            self.hops_sum += count * leg.hops


def _add_flows(matrix: TrafficMatrix, route: _Route, count: float) -> None:
    for src, dst, share, req_b, resp_b in route.flows:
        matrix.add(src, dst, count * share, count * req_b, count * resp_b)


def _hop_wait_ps(
    loads: Dict, window_ps: float, mean_packet_bytes: float
) -> float:
    """Load-weighted average M/D/1 wait per channel traversal."""
    if window_ps <= 0 or not loads:
        return 0.0
    num = 0.0
    den = 0.0
    for ch, load_bytes in loads.items():
        bw = bytes_per_ps(ch.effective_gbps)
        rho = min(RHO_CAP, load_bytes / (bw * window_ps))
        service = mean_packet_bytes / bw
        num += load_bytes * rho * service / (2.0 * (1.0 - rho))
        den += load_bytes
    return num / den if den else 0.0


def _net_bandwidth_bound_ps(loads: Dict) -> float:
    bound = 0.0
    for ch, load_bytes in loads.items():
        bound = max(bound, load_bytes / bytes_per_ps(ch.effective_gbps))
    return bound


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def analytic_run(
    spec: ArchSpec,
    workload: Union[Workload, WorkloadProfile],
    cfg: Optional[SystemConfig] = None,
    placement_policy: str = "random",
    placement_clusters: Optional[List[int]] = None,
    placement_weights: Optional[List[float]] = None,
    num_active_gpus: Optional[int] = None,
    collect_traffic: bool = False,
    seed: Optional[int] = None,
    obs=None,
    calibration: Optional[Calibration] = None,
) -> RunResult:
    """Predict ``workload`` on ``spec`` with the calibrated capacity model.

    ``workload`` is a :class:`~repro.workloads.base.Workload`, profiled
    here, or its profile (:func:`profile_for` memoizes one per recipe).
    Accepts the same keyword surface as
    :func:`repro.system.run.run_workload` so sweep jobs and cached spec
    identities carry over unchanged; ``seed`` and ``obs`` are accepted for
    signature compatibility (the model is deterministic and has no event
    stream to observe).
    """
    del seed, obs  # deterministic closed form; nothing to trace
    cfg = cfg or SystemConfig()
    if cfg.hmc.scheduler != "frfcfs":
        # SystemConfig.__post_init__ already rejects this combination;
        # the guard backstops callers that hand-build an analytic run
        # around the config (every coefficient was fitted against
        # FR-FCFS packet rows, so any other policy's numbers would be
        # silently wrong rather than merely approximate).
        from ..hmc.sched import SCHEDULERS

        raise ConfigError(
            "the analytic tier is calibrated for FR-FCFS only and does "
            f"not model scheduler {cfg.hmc.scheduler!r} "
            f"(registered schedulers: {sorted(SCHEDULERS)})"
        )
    if num_active_gpus is not None and not 1 <= num_active_gpus <= cfg.num_gpus:
        raise SimulationError(
            f"num_active_gpus={num_active_gpus} outside [1, {cfg.num_gpus}]"
        )
    model = _model_for(
        spec, cfg, placement_policy, placement_clusters, placement_weights
    )
    profile = (
        workload
        if isinstance(workload, WorkloadProfile)
        else profile_workload(workload)
    )
    active = num_active_gpus if num_active_gpus is not None else cfg.num_gpus

    result = RunResult(workload=profile.name, arch=spec.name)
    result.h2d_ps = memcpy_time_ps(spec, cfg, profile.h2d_bytes)
    result.d2h_ps = memcpy_time_ps(spec, cfg, profile.d2h_bytes)

    net_stats = _NetStats()
    energy_matrix = (
        TrafficMatrix(model.topo.num_routers) if model.topo else None
    )
    request_matrix = (
        TrafficMatrix(model.topo.num_routers)
        if (model.topo and collect_traffic)
        else None
    )

    l1_hits = l1_total = l2_hits = l2_total = 0.0
    memory_requests = 0.0
    raw_kernels: List[float] = []
    for kp in profile.kernels:
        tally = _CacheTally()
        raw_kernels.append(
            _estimate_kernel(
                model, kp, active, net_stats, energy_matrix, request_matrix, tally
            )
        )
        l1_hits += tally.l1_hits
        l1_total += tally.l1_total
        l2_hits += tally.l2_hits
        l2_total += tally.l2_total
        memory_requests += tally.memory_requests

    raw_host = _estimate_host(
        model, profile, net_stats, energy_matrix
    )

    cal = (calibration or load_calibration()).for_key(
        calibration_key(spec, cfg)
    )
    result.kernel_breakdown_ps = [
        int(round(t * cal.kernel)) for t in raw_kernels
    ]
    result.kernel_ps = sum(result.kernel_breakdown_ps)
    result.host_ps = int(round(raw_host * cal.host))
    result.total_ps = (
        result.h2d_ps + result.kernel_ps + result.host_ps + result.d2h_ps
    )

    result.l1_hit_rate = l1_hits / l1_total if l1_total else 0.0
    result.l2_hit_rate = l2_hits / l2_total if l2_total else 0.0
    result.hmc_row_hit_rate = ROW_HIT_EST if memory_requests else 0.0
    result.memory_requests = int(round(memory_requests))
    result.events_executed = 0

    if model.topo is not None:
        result.net_delivered = int(round(net_stats.delivered))
        if net_stats.delivered > 0:
            result.avg_net_latency_ps = (
                net_stats.latency_sum / net_stats.delivered
            ) * cal.latency
            result.avg_hops = (
                net_stats.hops_sum / net_stats.delivered
            ) * cal.hops
        result.energy = _network_energy(
            model, energy_matrix, max(1, result.kernel_ps), cal.energy
        )
        if request_matrix is not None:
            terminals = [f"gpu{g}" for g in range(cfg.num_gpus)]
            result.traffic_matrix = request_matrix.bytes_matrix(terminals)
    return result


def analytic_cost(
    spec: ArchSpec,
    workload,
    cfg: Optional[SystemConfig] = None,
    **run_kwargs,
) -> Dict[str, float]:
    """Cost-prediction hook for the sweep planner
    (:mod:`repro.exec.planner`).

    Reduces an :func:`analytic_run` prediction to the quantities that
    track a packet/flit job's *execution cost* rather than its simulated
    performance: ``units`` (predicted memory requests + network
    deliveries — the activity the event engines turn into events) and
    ``total_ps`` (predicted simulated runtime, the prefilter objective).
    Costs ~2 ms per point; the planner memoizes by spec hash.
    """
    result = analytic_run(spec, workload, cfg=cfg, **run_kwargs)
    return {
        "units": float(result.memory_requests + result.net_delivered),
        "total_ps": float(result.total_ps),
        "memory_requests": float(result.memory_requests),
        "net_delivered": float(result.net_delivered),
    }


@dataclass
class _CacheTally:
    l1_hits: float = 0.0
    l1_total: float = 0.0
    l2_hits: float = 0.0
    l2_total: float = 0.0
    memory_requests: float = 0.0


def _estimate_kernel(
    model: _CapacityModel,
    kp,
    active_gpus: int,
    net_stats: _NetStats,
    energy_matrix: Optional[TrafficMatrix],
    request_matrix: Optional[TrafficMatrix],
    cache_out: _CacheTally,
) -> float:
    """Estimated runtime (ps) of one kernel launch across the active GPUs."""
    cfg = model.cfg
    gpu = cfg.gpu
    resident_cap = gpu.num_sms * gpu.max_ctas_per_sm
    chunks = partition_chunks(kp.num_ctas, active_gpus)

    write_size = (
        int(round(kp.write_bytes_per_cta / kp.writes_per_cta))
        if kp.writes_per_cta
        else GPU_LINE_BYTES
    )
    atomic_size = (
        int(round(kp.atomic_bytes_per_cta / kp.atomics_per_cta))
        if kp.atomics_per_cta
        else 32
    )

    resources: Dict[str, _Resource] = {}
    kernel_matrix = (
        TrafficMatrix(model.topo.num_routers) if model.topo else None
    )

    def visit(route: _Route, count: float) -> None:
        for key, servers, service in route.visits:
            res = resources.get(key)
            if res is None:
                res = resources[key] = _Resource(servers)
            res.add(count, service)
        if kernel_matrix is not None:
            _add_flows(kernel_matrix, route, count)

    # Per-GPU traffic classes (counts are per whole kernel launch).
    per_gpu: List[Dict[str, object]] = []
    for g, m in enumerate(chunks):
        if m == 0:
            per_gpu.append({})
            continue
        terminal = f"gpu{g}"
        fractions = model.placement_fractions(g)
        mem_reads = min(kp.distinct_read_lines(m), kp.reads_per_cta * m)
        writes = kp.writes_per_cta * m
        atomics = kp.atomics_per_cta * m
        classes: List[Tuple[_Route, float, str]] = []
        for cluster, frac in fractions.items():
            read_route = model.route(terminal, g, cluster, "read", GPU_LINE_BYTES)
            classes.append((read_route, mem_reads * frac, "read"))
            if writes:
                classes.append(
                    (
                        model.route(terminal, g, cluster, "write", write_size),
                        writes * frac,
                        "write",
                    )
                )
            if atomics:
                classes.append(
                    (
                        model.route(terminal, g, cluster, "atomic", atomic_size),
                        atomics * frac,
                        "atomic",
                    )
                )
        for route, count, _ in classes:
            visit(route, count)
        per_gpu.append(
            {
                "m": m,
                "classes": classes,
                "mem_reads": mem_reads,
                "atomics": atomics,
            }
        )
        # Cache statistics (reported, and the L2-hit blend below).
        l1_accesses = kp.reads_per_cta * m
        l1_misses = min(kp.distinct_read_lines_1 * m, l1_accesses)
        cache_out.l1_total += l1_accesses
        cache_out.l1_hits += l1_accesses - l1_misses
        cache_out.l2_total += l1_misses
        cache_out.l2_hits += l1_misses - min(mem_reads, l1_misses)
        cache_out.memory_requests += mem_reads + writes + atomics

    loads = (
        model.flow_router.channel_loads(kernel_matrix)
        if kernel_matrix is not None and len(kernel_matrix)
        else {}
    )
    total_pkts = 2.0 * kernel_matrix.total_requests if kernel_matrix else 0.0
    total_bytes = (
        kernel_matrix.total_request_bytes + kernel_matrix.total_response_bytes
        if kernel_matrix
        else 0.0
    )
    mean_packet_bytes = total_bytes / total_pkts if total_pkts else 0.0

    bw_bound = _net_bandwidth_bound_ps(loads)
    for res in resources.values():
        bw_bound = max(bw_bound, res.busy_bound_ps)

    l1_hit_ps = gpu.l1.hit_latency_ps
    l2_lookup_ps = l1_hit_ps + gpu.l2.hit_latency_ps
    compute_per_phase = (
        kp.compute_ps_per_cta / kp.phases_per_cta if kp.phases_per_cta else 0.0
    )

    def latency_bound(
        info: Dict[str, object], waits: Dict[str, float], hop_wait: float
    ) -> float:
        m = info["m"]
        classes = info["classes"]
        mem_reads = info["mem_reads"]
        atomics = info["atomics"]
        total_phases = kp.phases_per_cta * m
        if total_phases <= 0:
            return 0.0
        # Average memory latencies over the destination mix.
        read_lat = atom_lat = 0.0
        read_n = atom_n = 0.0
        for route, count, kind in classes:
            if kind == "read":
                read_lat += count * route.latency_ps(waits, hop_wait)
                read_n += count
            elif kind == "atomic":
                atom_lat += count * route.latency_ps(waits, hop_wait)
                atom_n += count
        read_lat = read_lat / read_n if read_n else 0.0
        atom_lat = atom_lat / atom_n if atom_n else 0.0
        mem_per_phase = mem_reads / total_phases
        atom_per_phase = atomics / total_phases
        l1m_per_phase = kp.distinct_read_lines_1 / kp.phases_per_cta
        phase_lat = max(
            float(l1_hit_ps),
            min(1.0, l1m_per_phase) * l2_lookup_ps,
            min(1.0, mem_per_phase) * (l2_lookup_ps + read_lat),
            min(1.0, atom_per_phase) * (l2_lookup_ps + atom_lat),
        )
        waves = math.ceil(m / min(m, resident_cap))
        return waves * kp.phases_per_cta * (phase_lat + compute_per_phase)

    def compute_bound(info: Dict[str, object]) -> float:
        return kp.compute_ps_per_cta * info["m"] / gpu.num_sms

    # Fixed point: kernel time -> utilization -> waits -> kernel time.
    waits: Dict[str, float] = {}
    hop_wait = 0.0
    window = 0.0
    for _ in range(FIXED_POINT_ROUNDS):
        window = bw_bound
        for info in per_gpu:
            if not info:
                continue
            window = max(
                window, latency_bound(info, waits, hop_wait), compute_bound(info)
            )
        window = max(window, 1.0)
        waits = {key: res.wait_ps(window) for key, res in resources.items()}
        hop_wait = _hop_wait_ps(loads, window, mean_packet_bytes)

    # Final accounting at the converged waits.
    for info in per_gpu:
        if not info:
            continue
        for route, count, _ in info["classes"]:
            net_stats.account(route, count, hop_wait)
            if energy_matrix is not None:
                _add_flows(energy_matrix, route, count)
            if request_matrix is not None:
                # Fig. 10 scope: router-destined request packets only,
                # matching the packet engine's measured traffic matrix.
                for src, dst, share, req_b, _resp in route.flows:
                    if isinstance(dst, int):
                        request_matrix.add(src, dst, count * share, count * req_b)
    return window


def _estimate_host(
    model: _CapacityModel,
    profile: WorkloadProfile,
    net_stats: _NetStats,
    energy_matrix: Optional[TrafficMatrix],
) -> float:
    """Total host-step time: a latency-bound memory client with bounded
    MLP, uncontended (host steps run between kernels)."""
    if not profile.host_steps:
        return 0.0
    cfg = model.cfg
    fractions = model.host_fractions()
    line = cfg.cpu.line_bytes
    mlp = cfg.cpu.max_outstanding

    def mem_latency(kind: str, size: int, count_scale: float) -> float:
        lat = 0.0
        for cluster, frac in fractions.items():
            route = model.route("cpu", model.cpu_cluster, cluster, kind, size)
            lat += frac * route.latency_ps({}, 0.0)
            if count_scale:
                net_stats.account(route, count_scale * frac, 0.0)
                if energy_matrix is not None:
                    _add_flows(energy_matrix, route, count_scale * frac)
        return lat

    total = 0.0
    for step in profile.host_steps:
        read_lat = (
            mem_latency("read", line, step.read_misses) if step.read_misses else 0.0
        )
        write_size = (
            int(round(step.write_bytes / step.writes)) if step.writes else line
        )
        write_lat = (
            mem_latency("write", write_size, step.writes) if step.writes else 0.0
        )
        atomic_size = (
            int(round(step.atomic_bytes / step.atomics)) if step.atomics else 32
        )
        atomic_lat = (
            mem_latency("atomic", atomic_size, step.atomics) if step.atomics else 0.0
        )
        service = (
            step.read_hits * cfg.cpu.l2_hit_ps
            + step.read_misses * read_lat
            + step.writes * write_lat
            + step.atomics * atomic_lat
        )
        total += step.compute_ps + service / mlp
    return total


def _network_energy(
    model: _CapacityModel,
    matrix: Optional[TrafficMatrix],
    window_ps: int,
    coefficient: float,
) -> EnergyBreakdown:
    """Energy over the network channels (Fig. 17 scope: topology links
    plus terminal inject/eject), from predicted per-channel byte loads."""
    cfg = model.cfg.energy
    loads = (
        model.flow_router.channel_loads(matrix)
        if matrix is not None and len(matrix)
        else {}
    )
    channels = list(model.topo.channels)
    for atts in model.topo.terminals.values():
        for att in atts:
            channels.extend((att.inject, att.eject))
    active = 0.0
    idle = 0.0
    for ch in channels:
        load_bytes = loads.get(ch, 0.0)
        active_bits = load_bytes * 8
        active += active_bits * cfg.active_pj_per_bit
        capacity_bits = bytes_per_ps(ch.effective_gbps) * window_ps * 8
        idle += max(0.0, capacity_bits - active_bits) * cfg.idle_pj_per_bit
    return EnergyBreakdown(
        active_pj=active * coefficient, idle_pj=idle * coefficient
    )
