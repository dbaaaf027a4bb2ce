"""The analytic capacity model (fidelity tier ``analytic``).

Predicts a :class:`~repro.system.metrics.RunResult` without running the
event engine.  The pipeline:

1. :func:`~repro.analytic.profile.profile_workload` reduces the workload
   to per-kernel traffic averages plus a distinct-line power law (the
   L2-filtered read footprint) and exact host-step walks.
2. Page placement becomes a destination-cluster *fraction* per requester
   instead of a per-page draw; traffic to each cluster follows the path
   table of the organization's registered fabric
   (:attr:`~repro.system.fabric.base.Fabric.paths`, the one the packet
   tier binds), each transport kind costed by its closed-form leg: direct
   links, the PCIe switch, PCN links, or memory-network legs routed with
   :class:`~repro.network.trafficmatrix.FlowRouter` over the fabric's own
   topology builder.  Any registered fabric is costed, extensions too.
   A requester's routes to every cluster fold into one cached access
   mix per access kind and size (:class:`_Mix`), so a kernel is costed
   per (GPU, kind), not per (GPU, cluster, kind).  A kernel's mixes index
   once into a memoized :class:`_Plan`: its queued resources, and its
   channels grouped into classes that always carry equal loads.
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
from ..core.cta_scheduler import partition_chunks
from ..core.page_table import PagePlacement
from ..errors import ConfigError, SimulationError
from ..hmc.vault import ATOMIC_ALU_PS
from ..mem import AccessType
from ..network.packet import wire_bytes
from ..network.topologies import direct_link_width
from ..network.trafficmatrix import FlowRouter, TrafficMatrix
from ..pcn.pcn import link_width as pcn_link_width
from ..system.configs import ArchSpec, TransferMode
from ..system.energy import EnergyBreakdown, network_energy
from ..system.fabric import fabric_for
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

_READ = AccessType.READ
_WRITE = AccessType.WRITE
_ATOMIC = AccessType.ATOMIC


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

    __slots__ = ("servers", "demand_ps", "visits")

    def __init__(self, servers: int) -> None:
        self.servers = max(1, servers)
        self.demand_ps = 0.0
        self.visits = 0.0

    def add(self, count: float, service_ps: float) -> None:
        self.demand_ps += count * service_ps
        self.visits += count

    @property
    def busy_bound_ps(self) -> float:
        """Time to drain the demand at full parallelism (roofline term)."""
        return self.demand_ps / self.servers

    def wait_ps(self, window_ps: float) -> float:
        """M/D/1 queueing wait per visit at the given window."""
        if self.visits <= 0 or window_ps <= 0:
            return 0.0
        return _md1_wait_ps(
            self.demand_ps, self.servers, window_ps, self.demand_ps / self.visits
        )


def _md1_wait_ps(
    demand: float, capacity: float, window_ps: float, service_ps: float, weight=1.0
) -> float:
    """``weight`` times the M/D/1 wait ``rho * S / (2 * (1 - rho))`` per visit
    of ``service_ps`` to a server of ``capacity`` loaded with ``demand``."""
    rho = min(RHO_CAP, demand / (window_ps * capacity))
    # ``weight`` multiplies first: a channel's load-weighted wait has always
    # rounded as ``load * rho * S / (2 * (1 - rho))``, and rows keep it.
    return weight * rho * service_ps / (2.0 * (1.0 - rho))


@dataclass(frozen=True)
class _NetLeg:
    """One network packet traversal of a route (request or response)."""

    #: Channel traversals (inject + hops [+ eject]); each one can queue.
    hops: float
    fixed_ps: float


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


class _Mix:
    """One terminal's accesses of one kind and size, spread over its
    destination clusters: the per-access terms of the member routes,
    each weighted by its placement share and summed.

    An access count ``n`` of the mix stands for ``n * share`` accesses on
    each member route, so a kernel costs one visit per (GPU, kind)
    instead of one per (GPU, cluster, kind).  Every term is linear in the
    shares; only :meth:`_Plan.latency_ps` divides by their total.
    """

    __slots__ = (
        "members",
        "share",
        "fixed_ps",
        "leg_fixed_ps",
        "hops",
        "legs",
        "resources",
        "channels",
        "loads",
        "requests",
        "wire_bytes",
    )

    def __init__(
        self, members: Tuple[Tuple[_Route, float], ...], flow_router
    ) -> None:
        #: (route, share) pairs; read back only for Fig. 10's matrix.
        self.members = members
        share = fixed = leg_fixed = hops = legs = requests = wire = 0.0
        resources: Dict[str, List] = {}
        loads: Dict = {}
        get = loads.get
        for route, frac in members:
            share += frac
            fixed += frac * route.fixed_ps
            for key, servers, service in route.visits:
                entry = resources.get(key)
                if entry is None:
                    entry = resources[key] = [key, servers, 0.0, 0.0]
                entry[2] += frac * service
                entry[3] += frac
            for leg in route.legs:
                legs += frac
                hops += frac * leg.hops
                leg_fixed += frac * leg.fixed_ps
            for src, dst, flow_share, req_b, resp_b in route.flows:
                requests += frac * flow_share
                wire += frac * (req_b + resp_b)
                request, response = flow_router.flow_unit_loads(src, dst)
                req_b *= frac
                resp_b *= frac
                for ch, unit in request.items():
                    loads[ch] = get(ch, 0.0) + req_b * unit
                for ch, unit in response.items():
                    loads[ch] = get(ch, 0.0) + resp_b * unit
        self.share = share
        #: Unloaded latency (route fixed time plus its legs' fixed time).
        self.fixed_ps = fixed + leg_fixed
        self.leg_fixed_ps = leg_fixed
        self.hops = hops
        self.legs = legs
        #: (key, servers, service demand, visits) per resource.
        self.resources = tuple(tuple(entry) for entry in resources.values())
        #: Channel byte loads per access, as two parallel tuples.
        self.channels = tuple(loads)
        self.loads = tuple(loads.values())
        self.requests = requests
        self.wire_bytes = wire


class _Plan:
    """The contention shape of one kernel's slot mixes (GPU order, then
    read/write/atomic), indexed once so a kernel costs only its counts.

    A slot's access count scales every term of its mix, so the resources
    keep their per-slot (slot, demand, visits) terms and the channels are
    grouped into classes of equal bandwidth and per-slot (slot, unit load)
    terms: the channels of one class always carry the same load and queue
    alike, so a kernel sums and waits once per class and adds the waits up
    in channel order, as the per-channel sums did.
    """

    __slots__ = ("mixes", "resources", "visits", "classes", "channels", "channel_class")

    def __init__(self, mixes: Tuple[_Mix, ...]) -> None:
        self.mixes = mixes
        index: Dict[str, int] = {}
        resources: List[Tuple[int, List]] = []
        visits = []
        units: Dict = {}
        for slot, mix in enumerate(mixes):
            for key, servers, demand, n in mix.resources:
                if key not in index:
                    index[key] = len(resources)
                    resources.append((servers, []))
                resources[index[key]][1].append((slot, demand, n))
            visits.append(tuple((index[key], n) for key, _, _, n in mix.resources))
            for ch, unit in zip(mix.channels, mix.loads):
                units.setdefault(ch, []).append((slot, unit))
        classes: Dict = {}
        #: (servers, ((slot, demand, visits), ...)) in first-seen order.
        self.resources = tuple((s, tuple(terms)) for s, terms in resources)
        #: Per slot, (resource index, visits) in its mix's resource order.
        self.visits = tuple(visits)
        #: Loaded channels in first-seen order, and each one's class index.
        self.channels = tuple(units)
        self.channel_class = tuple(
            classes.setdefault((ch.bytes_per_ps, tuple(terms)), len(classes))
            for ch, terms in units.items()
        )
        #: (bytes per ps, ((slot, unit load), ...)) per channel class.
        self.classes = tuple(classes)

    def latency_ps(self, slot: int, waits: List[float], hop_wait_ps: float) -> float:
        """Mean latency of one access of ``slot`` at the given waits."""
        mix = self.mixes[slot]
        total = mix.fixed_ps + mix.hops * hop_wait_ps
        for i, visits in self.visits[slot]:
            total += visits * waits[i]
        return total / mix.share


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
        self.num_gpus = cfg.num_gpus
        self.hmcs_per_cluster = cfg.gpu.hmcs_per_gpu
        self.cpu_cluster = cfg.num_gpus
        self.netcfg = cfg.network
        self.vaults_per_cluster = (
            self.hmcs_per_cluster * cfg.hmc.num_vaults
        )
        self._route_cache: Dict[Tuple[str, int, int, AccessType, int], _Route] = {}
        self._mix_cache: Dict[Tuple[int, AccessType, int], _Mix] = {}
        self._plan_cache: Dict[Tuple[_Mix, ...], _Plan] = {}

        self.fabric = fabric_for(spec.organization)
        self.router_of = self.fabric.router_of
        network = self.fabric.network_topology
        self.topo = network(spec, cfg) if network is not None else None
        self.flow_router = FlowRouter(self.topo) if self.topo else None

        self.placement = PagePlacement(
            placement_policy,
            (
                placement_clusters
                if placement_clusters is not None
                else spec.data_clusters(cfg.num_gpus)
            ),
            weights=placement_weights,
        )

    # -- system shape ----------------------------------------------------
    def host_fractions(self) -> Dict[int, float]:
        """Destination fractions of host accesses (after the host view:
        under memcpy transfer the host works on its CPU-memory copy)."""
        if self.spec.transfer is TransferMode.MEMCPY:
            return {self.cpu_cluster: 1.0}
        return self.placement.shares(self.cpu_cluster)

    def _wire(self, kind: AccessType, size: int) -> Tuple[int, int]:
        """(request, response) bytes of one access on a packetized link."""
        header = self.netcfg.header_bytes
        return wire_bytes(kind, size, header), wire_bytes(kind, size, header, True)

    # -- transport building blocks --------------------------------------
    def _direct(
        self, route: _Route, terminal: str, kind: AccessType, size: int
    ) -> None:
        req_b, resp_b = self._wire(kind, size)
        gbps = self.netcfg.channel_gbps * direct_link_width(self.cfg, terminal)
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

    def _pcn_txn(self, route: _Route, src: str, dst: str, payload: float) -> None:
        cfg = self.cfg.pcn
        size = payload + cfg.header_bytes
        ser = _ser_ps(size, cfg.link_gbps * pcn_link_width(cfg, src, dst))
        route.fixed_ps += cfg.latency_ps + ser
        route.visits.append((f"pcn:{src}>{dst}", 1, ser))

    # -- network legs ----------------------------------------------------
    def _net_request(
        self, route: _Route, terminal: str, cluster: int, kind: AccessType, size: int
    ) -> None:
        """A memory request over the network to one of the destination
        cluster's HMC routers (line interleaving spreads them evenly)."""
        topo = self.topo
        net = self.netcfg
        req_b, resp_b = self._wire(kind, size)
        ser_req = _ser_ps(req_b, net.channel_gbps)
        ser_resp = _ser_ps(resp_b, net.channel_gbps)
        switch_ps = net.pipeline_stages * net.router_cycle_ps
        h = self.hmcs_per_cluster
        routers = [self.router_of(cluster, lc, h) for lc in range(h)]
        share = 1.0 / len(routers)
        # Mean hops to the cluster's routers; ``dist`` is symmetric, so the
        # response leg back to the terminal is as long as the request leg.
        d = sum(topo.terminal_distance(terminal, r) for r in routers) / len(routers)
        route.legs.append(
            _NetLeg(
                hops=1 + d,
                fixed_ps=(
                    net.serdes_ps
                    + ser_req
                    + d * (net.hop_latency_ps + ser_req)
                    + switch_ps
                ),
            )
        )
        route.legs.append(
            _NetLeg(
                hops=d + 1,
                fixed_ps=(
                    d * (net.hop_latency_ps + ser_resp)
                    + net.serdes_ps
                    + ser_resp
                ),
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
        topo = self.topo
        net = self.netcfg
        ser = _ser_ps(payload, net.channel_gbps)
        d = topo.terminal_distance(src, topo.destination_router(src, dst_terminal))
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
            )
        )

    # -- the fabric's path table ----------------------------------------
    def route(
        self, terminal: str, terminal_cluster: int, cluster: int, kind: AccessType, size: int
    ) -> _Route:
        key = (terminal, terminal_cluster, cluster, kind, size)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        route = _Route()
        self._path(route, terminal, terminal_cluster, cluster, kind, size)
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

    def mix(self, terminal_cluster: int, kind: AccessType, size: int) -> _Mix:
        """The memoized access mix of the GPU of ``terminal_cluster`` (or
        of the CPU, under the host view) over its placement shares."""
        key = (terminal_cluster, kind, size)
        cached = self._mix_cache.get(key)
        if cached is not None:
            return cached
        if terminal_cluster == self.cpu_cluster:
            terminal, fractions = "cpu", self.host_fractions()
        else:
            terminal = f"gpu{terminal_cluster}"
            fractions = self.placement.shares(terminal_cluster)
        mix = _Mix(
            tuple(
                (self.route(terminal, terminal_cluster, cluster, kind, size), share)
                for cluster, share in fractions.items()
            ),
            self.flow_router,
        )
        if len(self._mix_cache) >= _MODEL_CACHE_MAX:
            # A plan holds its mixes: drop the plans with them.
            self._mix_cache.clear()
            self._plan_cache.clear()
        self._mix_cache[key] = mix
        return mix

    def plan(self, mixes: Tuple[_Mix, ...]) -> _Plan:
        """The memoized :class:`_Plan` of one kernel's slot mixes."""
        plan = self._plan_cache.get(mixes)
        if plan is None:
            plan = _Plan(mixes)
            if len(self._plan_cache) >= _MODEL_CACHE_MAX:
                self._plan_cache.clear()
            # A mix fetched before a clearing miss of the same kernel is no
            # longer cached; a plan of it is used once, not memoized.
            if set(mixes).issubset(self._mix_cache.values()):
                self._plan_cache[mixes] = plan
        return plan

    def _path(
        self,
        route: _Route,
        terminal: str,
        terminal_cluster: int,
        cluster: int,
        kind: AccessType,
        size: int,
    ) -> None:
        """Add the legs of the fabric's path from ``terminal`` to
        ``cluster``, each transport kind as its closed form."""
        path = self.fabric.path(terminal_cluster, cluster, self.cpu_cluster)
        if path == "direct":
            self._direct(route, terminal, kind, size)
        elif path == "net":
            self._net_request(route, terminal, cluster, kind, size)
        elif path == "net_fwd":
            self._forwarded(route, self._net_terminal_leg, terminal, cluster, kind, size)
        elif path == "pcie_fwd":
            self._forwarded(route, self._pcie_txn, terminal, cluster, kind, size)
        elif path == "pcn_fwd":
            self._forwarded(route, self._pcn_txn, terminal, cluster, kind, size)
        else:
            raise ConfigError(f"no analytic leg for transport {path!r}")

    def _forwarded(
        self, route: _Route, hop, terminal: str, cluster: int, kind: AccessType, size: int
    ) -> None:
        """Fig. 9(a) path: ``hop`` (a PCIe, PCN or network terminal leg) to
        the owner of ``cluster``, which reaches it on its own path, and
        ``hop`` back."""
        owner = "cpu" if cluster == self.cpu_cluster else f"gpu{cluster}"
        req_b, resp_b = self._wire(kind, size)
        hop(route, terminal, owner, req_b)
        route.fixed_ps += 2 * GPU_FORWARD_PS
        self._path(route, owner, cluster, cluster, kind, size)
        hop(route, owner, terminal, resp_b)
        if hop == self._net_terminal_leg:
            route.flows.append((terminal, owner, 1.0, req_b, resp_b))

    def _dram_latency_ps(self, kind: AccessType) -> float:
        timing = self.cfg.hmc.timing
        base = ROW_HIT_EST * timing.hit_ps + (1.0 - ROW_HIT_EST) * 0.5 * (
            timing.empty_ps + timing.conflict_ps
        )
        if kind is _ATOMIC:
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

    def add(self, mix: _Mix, count: float, hop_wait_ps: float) -> None:
        """Account ``count`` accesses of ``mix``: one delivery per leg."""
        self.delivered += count * mix.legs
        self.latency_sum += count * (mix.leg_fixed_ps + mix.hops * hop_wait_ps)
        self.hops_sum += count * mix.hops


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
    # Fig. 17 channel loads: every kernel's contention loads plus the host
    # steps' loads (routing is linear, so this is the loads of the union).
    energy_loads: Optional[Dict] = {} if model.topo else None
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
                model, kp, active, net_stats, energy_loads, request_matrix, tally
            )
        )
        l1_hits += tally.l1_hits
        l1_total += tally.l1_total
        l2_hits += tally.l2_hits
        l2_total += tally.l2_total
        memory_requests += tally.memory_requests

    raw_host = _estimate_host(model, profile, net_stats, energy_loads)

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
            model, energy_loads, max(1, result.kernel_ps), cal.energy
        )
        if request_matrix is not None:
            terminals = [f"gpu{g}" for g in range(cfg.num_gpus)]
            result.traffic_matrix = request_matrix.bytes_matrix(terminals)
    return result


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
    energy_loads: Optional[Dict],
    request_matrix: Optional[TrafficMatrix],
    cache_out: _CacheTally,
) -> float:
    """Estimated runtime (ps) of one kernel launch across the active GPUs."""
    cfg = model.cfg
    gpu = cfg.gpu
    resident_cap = gpu.num_sms * gpu.max_ctas_per_sm
    chunks = [len(c) for c in partition_chunks(kp.num_ctas, active_gpus)]

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
    l1_hit_ps = gpu.l1.hit_latency_ps
    l2_lookup_ps = l1_hit_ps + gpu.l2.hit_latency_ps
    compute_per_phase = base_phase_ps = 0.0
    if kp.phases_per_cta:
        compute_per_phase = kp.compute_ps_per_cta / kp.phases_per_cta
        l1m_per_phase = kp.distinct_read_lines_1 / kp.phases_per_cta
        base_phase_ps = max(float(l1_hit_ps), min(1.0, l1m_per_phase) * l2_lookup_ps)

    # Per-GPU access mixes, one slot each (counts are per whole launch),
    # and each GPU's compute bound and waits-independent latency terms.
    mixes: List[_Mix] = []
    counts: List[float] = []
    bounds: List[Tuple] = []
    for g, m in enumerate(chunks):
        if m == 0:
            continue
        mem_reads = min(kp.distinct_read_lines(m), kp.reads_per_cta * m)
        writes = kp.writes_per_cta * m
        atomics = kp.atomics_per_cta * m
        # Read, write, atomic: a Fig. 10 matrix cell belongs to one
        # cluster, so it accumulates its kinds in this order.
        read_slot = len(mixes)
        mixes.append(model.mix(g, _READ, GPU_LINE_BYTES))
        counts.append(mem_reads)
        if writes:
            mixes.append(model.mix(g, _WRITE, write_size))
            counts.append(writes)
        atomic_slot = len(mixes)
        if atomics:
            mixes.append(model.mix(g, _ATOMIC, atomic_size))
            counts.append(atomics)
        # Per phase, each memory kind's exposure and slot.
        total_phases = kp.phases_per_cta * m
        exposed = [
            (min(1.0, n / total_phases), slot)
            for n, slot in ((mem_reads, read_slot), (atomics, atomic_slot))
            if n and total_phases > 0
        ]
        waves = math.ceil(m / min(m, resident_cap))
        compute_bound = kp.compute_ps_per_cta * m / gpu.num_sms
        bounds.append((compute_bound, waves * kp.phases_per_cta, exposed))
        # Cache statistics (reported, and the L2-hit blend below).
        l1_accesses = kp.reads_per_cta * m
        l1_misses = min(kp.distinct_read_lines_1 * m, l1_accesses)
        cache_out.l1_total += l1_accesses
        cache_out.l1_hits += l1_accesses - l1_misses
        cache_out.l2_total += l1_misses
        cache_out.l2_hits += l1_misses - min(mem_reads, l1_misses)
        cache_out.memory_requests += mem_reads + writes + atomics

    plan = model.plan(tuple(mixes))
    requests = wire_bytes = 0.0
    for mix, count in zip(mixes, counts):
        requests += count * mix.requests
        wire_bytes += count * mix.wire_bytes
    total_pkts = 2.0 * requests
    mean_packet_bytes = wire_bytes / total_pkts if total_pkts else 0.0

    bw_bound = 0.0
    resources: List[_Resource] = []
    for servers, terms in plan.resources:
        res = _Resource(servers)
        for slot, demand, visits in terms:
            res.demand_ps += counts[slot] * demand
            res.visits += counts[slot] * visits
        resources.append(res)
    # One load, bandwidth bound and packet service time per channel class.
    classes: List[Tuple[float, float, float]] = []
    for bw, terms in plan.classes:
        load_bytes = 0.0
        for slot, unit in terms:
            load_bytes += counts[slot] * unit
        classes.append((load_bytes, bw, mean_packet_bytes / bw))
        bw_bound = max(bw_bound, load_bytes / bw)
    for res in resources:
        bw_bound = max(bw_bound, res.busy_bound_ps)
    if energy_loads is not None:
        for ch, c in zip(plan.channels, plan.channel_class):
            energy_loads[ch] = energy_loads.get(ch, 0.0) + classes[c][0]
    load_sum = 0.0
    for c in plan.channel_class:
        load_sum += classes[c][0]

    # Fixed point: kernel time -> utilization -> waits -> kernel time.
    waits = [0.0] * len(resources)
    hop_wait = 0.0
    window = 0.0
    for _ in range(FIXED_POINT_ROUNDS):
        window = bw_bound
        for compute_bound, waves_phases, exposed in bounds:
            # The latency bound: waves of resident CTAs, each phase exposed
            # to its mean memory latencies over the destination mix.
            phase_lat = base_phase_ps
            for coef, slot in exposed:
                mem_lat = plan.latency_ps(slot, waits, hop_wait)
                phase_lat = max(phase_lat, coef * (l2_lookup_ps + mem_lat))
            latency_bound = waves_phases * (phase_lat + compute_per_phase)
            window = max(window, latency_bound, compute_bound)
        window = max(window, 1.0)
        waits = [res.wait_ps(window) for res in resources]
        # Load-weighted mean wait per channel traversal, in channel order.
        class_waits = [
            _md1_wait_ps(load_bytes, bw, window, service, load_bytes)
            for load_bytes, bw, service in classes
        ]
        num = 0.0
        for c in plan.channel_class:
            num += class_waits[c]
        hop_wait = num / load_sum if load_sum else 0.0

    # Final accounting at the converged waits.
    for mix, count in zip(mixes, counts):
        net_stats.add(mix, count, hop_wait)
        if request_matrix is not None:
            # Fig. 10 scope: router-destined request packets only,
            # matching the packet engine's measured traffic matrix.
            for route, frac in mix.members:
                route_count = count * frac
                for src, dst, share, req_b, _resp in route.flows:
                    if isinstance(dst, int):
                        request_matrix.add(
                            src, dst, route_count * share, route_count * req_b
                        )
    return window


def _estimate_host(
    model: _CapacityModel,
    profile: WorkloadProfile,
    net_stats: _NetStats,
    energy_loads: Optional[Dict],
) -> float:
    """Total host-step time: a latency-bound memory client with bounded
    MLP, uncontended (host steps run between kernels)."""
    if not profile.host_steps:
        return 0.0
    cfg = model.cfg
    line = cfg.cpu.line_bytes
    mlp = cfg.cpu.max_outstanding

    def mem_latency(kind: AccessType, size: int, count: float) -> float:
        mix = model.mix(model.cpu_cluster, kind, size)
        net_stats.add(mix, count, 0.0)
        if energy_loads is not None:
            for ch, load_bytes in zip(mix.channels, mix.loads):
                energy_loads[ch] = energy_loads.get(ch, 0.0) + count * load_bytes
        return mix.fixed_ps

    total = 0.0
    for step in profile.host_steps:
        read_lat = (
            mem_latency(_READ, line, step.read_misses) if step.read_misses else 0.0
        )
        write_size = (
            int(round(step.write_bytes / step.writes)) if step.writes else line
        )
        write_lat = (
            mem_latency(_WRITE, write_size, step.writes) if step.writes else 0.0
        )
        atomic_size = (
            int(round(step.atomic_bytes / step.atomics)) if step.atomics else 32
        )
        atomic_lat = (
            mem_latency(_ATOMIC, atomic_size, step.atomics) if step.atomics else 0.0
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
    model: _CapacityModel, loads: Dict, window_ps: int, coefficient: float
) -> EnergyBreakdown:
    """Fig. 17 energy of the network's channels from predicted per-channel
    byte loads, scaled by the calibration coefficient."""
    raw = network_energy(
        ((ch, loads.get(ch, 0.0)) for ch in model.topo.all_channels()),
        window_ps,
        model.cfg.energy,
    )
    return EnergyBreakdown(
        active_pj=raw.active_pj * coefficient, idle_pj=raw.idle_pj * coefficient
    )
