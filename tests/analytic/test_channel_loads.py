"""The analytic tier costs each kernel from one access mix per GPU and kind.

A :class:`~repro.analytic.model._Mix` folds one terminal's routes to every
destination cluster into share-weighted per-access terms, so a kernel
visits one mix per (GPU, access kind) instead of one traffic class per
(GPU, cluster, kind).  These tests pin that folding two ways:

- a ``hypothesis`` property on every registered topology: a mix's channel
  loads, resource demands and packet totals equal the share-weighted sums
  of its member routes, each routed flow by flow;
- :func:`analytic_run` against an independent per-class reference, the
  estimator as it was before the mixes: one class per (GPU, cluster,
  kind), each kernel's flows routed flow by flow from a
  :class:`TrafficMatrix`, every route's latency summed per route, and the
  Fig. 17 energy loads routed from one union matrix of every accounted
  class's flows.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytic import analytic_run, load_calibration, profile_for
from repro.analytic import model as analytic_model
from repro.analytic.calibrate import calibration_key
from repro.analytic.model import _CapacityModel, _Mix, _Resource
from repro.analytic.profile import GPU_LINE_BYTES
from repro.config import SystemConfig
from repro.core.cta_scheduler import partition_chunks
from repro.errors import TopologyError
from repro.mem import AccessType
from repro.network.topologies import BUILDERS
from repro.network.trafficmatrix import TrafficMatrix
from repro.system.configs import EXTENSION_ARCHS, TABLE_III
from repro.system.energy import EnergyBreakdown, network_energy
from repro.system.spec import WorkloadRef

CFG = SystemConfig(num_gpus=4)
ANALYTIC = SystemConfig(network_model="analytic")
REL = 1e-12
KINDS = (AccessType.READ, AccessType.WRITE, AccessType.ATOMIC)


@functools.lru_cache(maxsize=None)
def model_for(name: str, include_cpu: bool) -> _CapacityModel:
    """A capacity model whose network is topology ``name``: the GPU memory
    network without the CPU, the unified one with it, or the CMN."""
    if name == "cmn":
        spec = TABLE_III["CMN"]
    else:
        spec = TABLE_III["UMN" if include_cpu else "GMN"].with_(topology=name)
    return _CapacityModel(spec, CFG, "random", None, None)


def buildable(name: str, include_cpu: bool) -> bool:
    try:
        model_for(name, include_cpu)
    except TopologyError:  # the overlays exist only with a CPU
        return False
    return True


TOPOLOGIES = [
    *(
        (name, include_cpu)
        for name in BUILDERS
        for include_cpu in (False, True)
        if buildable(name, include_cpu)
    ),
    ("cmn", True),
]


def flow_by_flow_loads(router, matrix: TrafficMatrix):
    """Channel loads of ``matrix`` routed one flow at a time, in sorted
    cell order."""
    loads = {}
    cells = sorted(matrix._flows.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))
    for (src, dst), (_, request_bytes, response_bytes) in cells:
        request, response = router.flow_unit_loads(src, dst)
        if request_bytes:
            for ch, frac in request.items():
                loads[ch] = loads.get(ch, 0.0) + request_bytes * frac
        if response_bytes:
            for ch, frac in response.items():
                loads[ch] = loads.get(ch, 0.0) + response_bytes * frac
    return loads


def add_flows(matrix: TrafficMatrix, route, count: float) -> None:
    for src, dst, share, req_b, resp_b in route.flows:
        matrix.add(src, dst, count * share, count * req_b, count * resp_b)


def close(actual: float, expected: float) -> bool:
    return actual == pytest.approx(expected, rel=REL, abs=1e-9)


# ---------------------------------------------------------------------------
# Each mix is the share-weighted sum of its member routes
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "name,include_cpu", TOPOLOGIES, ids=[f"{n}-cpu{int(c)}" for n, c in TOPOLOGIES]
)
@settings(max_examples=25, deadline=None)
@given(
    terminal=st.integers(0, 4),
    kind=st.sampled_from(KINDS),
    size=st.sampled_from((16, 32, 64, GPU_LINE_BYTES)),
    weights=st.lists(
        st.floats(0.0, 1.0, allow_nan=False, allow_subnormal=False),
        min_size=5, max_size=5,
    ),
)
def test_loads_of_a_union_are_the_summed_loads(
    name, include_cpu, terminal, kind, size, weights
):
    model = model_for(name, include_cpu)
    cluster_of = model.cpu_cluster if terminal == 4 else terminal
    label = "cpu" if terminal == 4 else f"gpu{terminal}"
    members = tuple(
        (model.route(label, cluster_of, cluster, kind, size), share)
        for cluster, share in enumerate(weights)
    )
    mix = _Mix(members, model.flow_router)

    loads, resources = {}, {}
    requests = wire_bytes = 0.0
    for route, share in members:
        matrix = TrafficMatrix(model.topo.num_routers)
        add_flows(matrix, route, 1.0)
        for ch, amount in flow_by_flow_loads(model.flow_router, matrix).items():
            loads[ch] = loads.get(ch, 0.0) + share * amount
        for key, servers, service in route.visits:
            entry = resources.setdefault(key, [servers, 0.0, 0.0])
            entry[1] += share * service
            entry[2] += share
        for _, _, flow_share, req_b, resp_b in route.flows:
            requests += share * flow_share
            wire_bytes += share * (req_b + resp_b)

    got = dict(zip(mix.channels, mix.loads))
    for ch in {*got, *loads}:
        assert close(got.get(ch, 0.0), loads.get(ch, 0.0)), ch.name
    assert {key: [s, d, v] for key, s, d, v in mix.resources} == pytest.approx(
        resources, rel=REL
    )
    assert close(mix.requests, requests)
    assert close(mix.wire_bytes, wire_bytes)
    assert close(mix.share, math.fsum(weights))


# ---------------------------------------------------------------------------
# analytic_run against the per-class reference
# ---------------------------------------------------------------------------
def route_latency_ps(route, waits, hop_wait_ps: float) -> float:
    total = route.fixed_ps
    for key, _, _ in route.visits:
        total += waits.get(key, 0.0)
    for leg in route.legs:
        total += leg.fixed_ps + leg.hops * hop_wait_ps
    return total


def account(net_stats, route, count: float, hop_wait_ps: float) -> None:
    for leg in route.legs:
        net_stats.delivered += count
        net_stats.latency_sum += count * (leg.fixed_ps + leg.hops * hop_wait_ps)
        net_stats.hops_sum += count * leg.hops


def hop_wait_ps(loads, window_ps: float, mean_packet_bytes: float) -> float:
    if window_ps <= 0 or not loads:
        return 0.0
    num = den = 0.0
    for ch, load_bytes in loads.items():
        bw = ch.bytes_per_ps
        rho = min(analytic_model.RHO_CAP, load_bytes / (bw * window_ps))
        num += load_bytes * rho * (mean_packet_bytes / bw) / (2.0 * (1.0 - rho))
        den += load_bytes
    return num / den if den else 0.0


def make_reference(accounted):
    """Per-class kernel and host estimators; every accounted (route,
    count) class is appended to ``accounted`` for the union energy
    matrix, so neither adds to the run's energy loads."""

    def kernel(model, kp, active_gpus, net_stats, energy_loads, request_matrix, cache_out):
        gpu = model.cfg.gpu
        resident_cap = gpu.num_sms * gpu.max_ctas_per_sm
        chunks = [len(c) for c in partition_chunks(kp.num_ctas, active_gpus)]
        write_size = (
            int(round(kp.write_bytes_per_cta / kp.writes_per_cta))
            if kp.writes_per_cta else GPU_LINE_BYTES
        )
        atomic_size = (
            int(round(kp.atomic_bytes_per_cta / kp.atomics_per_cta))
            if kp.atomics_per_cta else 32
        )
        resources = {}
        matrix = TrafficMatrix(model.topo.num_routers) if model.topo else None
        per_gpu = []
        for g, m in enumerate(chunks):
            if m == 0:
                continue
            mem_reads = min(kp.distinct_read_lines(m), kp.reads_per_cta * m)
            writes = kp.writes_per_cta * m
            atomics = kp.atomics_per_cta * m
            classes = []
            for cluster, frac in model.placement.shares(g).items():
                route = functools.partial(model.route, f"gpu{g}", g, cluster)
                classes.append((route(AccessType.READ, GPU_LINE_BYTES), mem_reads * frac, "r"))
                if writes:
                    classes.append((route(AccessType.WRITE, write_size), writes * frac, "w"))
                if atomics:
                    classes.append((route(AccessType.ATOMIC, atomic_size), atomics * frac, "a"))
            for route, count, _ in classes:
                for key, servers, service in route.visits:
                    resources.setdefault(key, _Resource(servers)).add(count, service)
                if matrix is not None:
                    add_flows(matrix, route, count)
            per_gpu.append((m, mem_reads, atomics, classes))
            l1_accesses = kp.reads_per_cta * m
            l1_misses = min(kp.distinct_read_lines_1 * m, l1_accesses)
            cache_out.l1_total += l1_accesses
            cache_out.l1_hits += l1_accesses - l1_misses
            cache_out.l2_total += l1_misses
            cache_out.l2_hits += l1_misses - min(mem_reads, l1_misses)
            cache_out.memory_requests += mem_reads + writes + atomics

        loads = flow_by_flow_loads(model.flow_router, matrix) if matrix else {}
        cells = matrix._flows.values() if matrix else ()
        packets = 2.0 * sum(cell[0] for cell in cells)
        wire = sum(cell[1] + cell[2] for cell in cells)
        mean_packet_bytes = wire / packets if packets else 0.0
        bw_bound = max(
            [load / ch.bytes_per_ps for ch, load in loads.items()]
            + [res.busy_bound_ps for res in resources.values()],
            default=0.0,
        )
        l1_hit_ps = gpu.l1.hit_latency_ps
        l2_lookup_ps = l1_hit_ps + gpu.l2.hit_latency_ps
        compute_per_phase = (
            kp.compute_ps_per_cta / kp.phases_per_cta if kp.phases_per_cta else 0.0
        )

        def latency_bound(m, mem_reads, atomics, classes, waits, hop_wait):
            total_phases = kp.phases_per_cta * m
            if total_phases <= 0:
                return 0.0
            lat = {"r": 0.0, "a": 0.0}
            n = {"r": 0.0, "a": 0.0}
            for route, count, kind in classes:
                if kind in lat:
                    lat[kind] += count * route_latency_ps(route, waits, hop_wait)
                    n[kind] += count
            read_lat = lat["r"] / n["r"] if n["r"] else 0.0
            atom_lat = lat["a"] / n["a"] if n["a"] else 0.0
            phase_lat = max(
                float(l1_hit_ps),
                min(1.0, kp.distinct_read_lines_1 / kp.phases_per_cta) * l2_lookup_ps,
                min(1.0, mem_reads / total_phases) * (l2_lookup_ps + read_lat),
                min(1.0, atomics / total_phases) * (l2_lookup_ps + atom_lat),
            )
            waves = math.ceil(m / min(m, resident_cap))
            return waves * kp.phases_per_cta * (phase_lat + compute_per_phase)

        waits, hop_wait, window = {}, 0.0, 0.0
        for _ in range(analytic_model.FIXED_POINT_ROUNDS):
            window = bw_bound
            for m, mem_reads, atomics, classes in per_gpu:
                window = max(
                    window,
                    latency_bound(m, mem_reads, atomics, classes, waits, hop_wait),
                    kp.compute_ps_per_cta * m / gpu.num_sms,
                )
            window = max(window, 1.0)
            waits = {key: res.wait_ps(window) for key, res in resources.items()}
            hop_wait = hop_wait_ps(loads, window, mean_packet_bytes)

        for *_, classes in per_gpu:
            for route, count, _ in classes:
                account(net_stats, route, count, hop_wait)
                accounted.append((route, count))
                if request_matrix is not None:
                    for src, dst, share, req_b, _ in route.flows:
                        if isinstance(dst, int):
                            request_matrix.add(src, dst, count * share, count * req_b)
        return window

    def host(model, profile, net_stats, energy_loads):
        cfg = model.cfg
        line = cfg.cpu.line_bytes

        def mem_latency(kind, size, count):
            lat = 0.0
            for cluster, frac in model.host_fractions().items():
                route = model.route("cpu", model.cpu_cluster, cluster, kind, size)
                lat += frac * route_latency_ps(route, {}, 0.0)
                account(net_stats, route, count * frac, 0.0)
                accounted.append((route, count * frac))
            return lat

        total = 0.0
        for step in profile.host_steps:
            service = step.read_hits * cfg.cpu.l2_hit_ps
            if step.read_misses:
                service += step.read_misses * mem_latency(
                    AccessType.READ, line, step.read_misses
                )
            if step.writes:
                size = int(round(step.write_bytes / step.writes))
                service += step.writes * mem_latency(AccessType.WRITE, size, step.writes)
            if step.atomics:
                size = int(round(step.atomic_bytes / step.atomics))
                service += step.atomics * mem_latency(AccessType.ATOMIC, size, step.atomics)
            total += step.compute_ps + service / cfg.cpu.max_outstanding
        return total

    return kernel, host


def reference_run(monkeypatch, spec, profile, cfg=ANALYTIC, **kwargs):
    accounted = []
    kernel, host = make_reference(accounted)
    with monkeypatch.context() as patch:
        patch.setattr(analytic_model, "_estimate_kernel", kernel)
        patch.setattr(analytic_model, "_estimate_host", host)
        result = analytic_run(spec, profile, cfg=cfg, collect_traffic=True, **kwargs)
    model = analytic_model._model_for(
        spec,
        cfg,
        kwargs.get("placement_policy", "random"),
        kwargs.get("placement_clusters"),
        kwargs.get("placement_weights"),
    )
    if model.topo is None:
        return result
    union = TrafficMatrix(model.topo.num_routers)
    for route, count in accounted:
        add_flows(union, route, count)
    loads = flow_by_flow_loads(model.flow_router, union)
    raw = network_energy(
        ((ch, loads.get(ch, 0.0)) for ch in model.topo.all_channels()),
        max(1, result.kernel_ps),
        cfg.energy,
    )
    coefficient = load_calibration().for_key(calibration_key(spec, cfg)).energy
    result.energy = EnergyBreakdown(
        raw.active_pj * coefficient, raw.idle_pj * coefficient
    )
    return result


def assert_matches_reference(monkeypatch, spec, profile, cfg=ANALYTIC, **kwargs):
    got = analytic_run(spec, profile, cfg=cfg, collect_traffic=True, **kwargs)
    want = reference_run(monkeypatch, spec, profile, cfg, **kwargs)
    for f in dataclasses.fields(got):
        value, expected = getattr(got, f.name), getattr(want, f.name)
        if isinstance(expected, float):
            assert value == pytest.approx(expected, rel=REL, abs=0.0), f.name
        elif f.name == "energy" and expected is not None:
            assert value.active_pj == pytest.approx(expected.active_pj, rel=REL)
            assert value.idle_pj == pytest.approx(expected.idle_pj, rel=REL)
        else:
            assert value == expected, f.name
    return got


ARCHS = [*TABLE_III.values(), *EXTENSION_ARCHS.values()]
#: Architectures whose runs put bytes on a memory network (GMN-ZC keeps
#: its data in CPU memory, reached over PCIe).
NETWORKED = {"GMN", "UMN", "CMN", "CMN-ZC"}


@pytest.mark.parametrize("workload", ["BP", "CG.S", "KMN"])
@pytest.mark.parametrize("spec", ARCHS, ids=[a.name for a in ARCHS])
def test_run_matches_union_matrix_reference(monkeypatch, spec, workload):
    profile = profile_for(WorkloadRef(workload, 0.25))
    got = assert_matches_reference(monkeypatch, spec, profile)
    if spec.name in NETWORKED:
        assert got.energy is not None and got.energy.active_pj > 0


def test_two_active_gpus_match_the_reference(monkeypatch):
    profile = profile_for(WorkloadRef("KMN", 0.25))
    got = assert_matches_reference(
        monkeypatch, TABLE_III["UMN"], profile, num_active_gpus=2
    )
    assert got.traffic_matrix[2] == got.traffic_matrix[3] == [0] * len(
        got.traffic_matrix[0]
    )


def test_fig7_placement_weights_match_the_reference(monkeypatch):
    cfg = dataclasses.replace(
        ANALYTIC, hmc=dataclasses.replace(ANALYTIC.hmc, vault_bus_bytes_per_cycle=2)
    )
    profile = profile_for(
        WorkloadRef(
            "vectoradd",
            factory="repro.workloads.vectoradd:make_vectoradd",
            kwargs=(("num_ctas", 96), ("lines_per_cta", 8)),
        )
    )
    got = assert_matches_reference(
        monkeypatch,
        TABLE_III["GMN"],
        profile,
        cfg,
        placement_policy="weighted",
        placement_clusters=(0, 1, 2, 3),
        placement_weights=(0.5, 0.5, 0.0, 0.0),
        num_active_gpus=1,
    )
    assert got.net_delivered > 0
