"""The analytic tier routes each traffic matrix once.

:meth:`FlowRouter.channel_loads` is linear in the matrix, so the Fig. 17
energy loads of a run are the sum of the per-kernel contention loads and
the host steps' loads, with no separate energy matrix routed again.  These
tests pin the identity that relies on (loads of a union equal the summed
loads on every registered topology) and compare :func:`analytic_run`
against a reference that routes one union energy matrix, with the loads
routine written out flow by flow in sorted order.
"""

from __future__ import annotations

import dataclasses
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytic import analytic_run, load_calibration, profile_for
from repro.analytic import model as analytic_model
from repro.analytic.calibrate import calibration_key
from repro.config import SystemConfig
from repro.errors import TopologyError
from repro.network.topologies import BUILDERS, build_cmn, build_topology
from repro.network.trafficmatrix import FlowRouter, TrafficMatrix
from repro.system.configs import EXTENSION_ARCHS, TABLE_III
from repro.system.energy import EnergyBreakdown, network_energy
from repro.system.spec import WorkloadRef

CFG = SystemConfig(num_gpus=4)
ANALYTIC = SystemConfig(network_model="analytic")
REL = 1e-12


@functools.lru_cache(maxsize=None)
def router_for(name: str, include_cpu: bool) -> FlowRouter:
    topo = build_cmn(CFG) if name == "cmn" else build_topology(name, CFG, include_cpu)
    return FlowRouter(topo)


def buildable(name: str, include_cpu: bool) -> bool:
    try:
        router_for(name, include_cpu)
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


amounts = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False,
    allow_subnormal=False,
)
#: (source index, destination index, requests, request bytes, response
#: bytes); indices are reduced modulo the topology's terminals/routers.
cells = st.tuples(st.integers(0, 63), st.integers(0, 63), amounts, amounts, amounts)


def matrix_of(router: FlowRouter, flows) -> TrafficMatrix:
    topo = router.topo
    terminals = sorted(topo.terminals)
    matrix = TrafficMatrix(topo.num_routers)
    for s, d, requests, req_b, resp_b in flows:
        src = terminals[s % len(terminals)]
        # Even destination indices pick a router, odd ones another terminal.
        others = [t for t in terminals if t != src]
        if d % 2 or not others:
            dst = d // 2 % topo.num_routers
        else:
            dst = others[d // 2 % len(others)]
        matrix.add(src, dst, requests, req_b, resp_b)
    return matrix


def assert_loads_close(actual, expected) -> None:
    assert set(actual) == set(expected)
    for ch, amount in expected.items():
        assert actual[ch] == pytest.approx(amount, rel=REL, abs=0.0), ch.name


@pytest.mark.parametrize(
    "name,include_cpu", TOPOLOGIES, ids=[f"{n}-cpu{int(c)}" for n, c in TOPOLOGIES]
)
@settings(max_examples=25, deadline=None)
@given(a=st.lists(cells, max_size=12), b=st.lists(cells, max_size=12))
def test_loads_of_a_union_are_the_summed_loads(name, include_cpu, a, b):
    router = router_for(name, include_cpu)
    union = matrix_of(router, a + b)
    summed = dict(router.channel_loads(matrix_of(router, a)))
    for ch, amount in router.channel_loads(matrix_of(router, b)).items():
        summed[ch] = summed.get(ch, 0.0) + amount
    assert_loads_close(summed, router.channel_loads(union))


# ---------------------------------------------------------------------------
# analytic_run against a reference that routes one union energy matrix
# ---------------------------------------------------------------------------
def flow_by_flow_loads(router: FlowRouter, matrix: TrafficMatrix):
    """Channel loads routed one flow at a time, in sorted cell order."""
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


def reference_run(monkeypatch, spec, profile):
    """``analytic_run`` with every matrix routed flow by flow and the energy
    loads taken from one matrix holding every accounted route's flows."""
    accounted = []
    account = analytic_model._NetStats.account

    def recording_account(self, route, count, hop_wait_ps):
        accounted.append((route, count))
        account(self, route, count, hop_wait_ps)

    with monkeypatch.context() as patch:
        patch.setattr(FlowRouter, "channel_loads", flow_by_flow_loads)
        patch.setattr(analytic_model._NetStats, "account", recording_account)
        result = analytic_run(spec, profile, cfg=ANALYTIC, collect_traffic=True)
    model = analytic_model._model_for(spec, ANALYTIC, "random", None, None)
    if model.topo is None:
        return result
    union = TrafficMatrix(model.topo.num_routers)
    for route, count in accounted:
        for src, dst, share, req_b, resp_b in route.flows:
            union.add(src, dst, count * share, count * req_b, count * resp_b)
    loads = flow_by_flow_loads(model.flow_router, union)
    raw = network_energy(
        ((ch, loads.get(ch, 0.0)) for ch in model.topo.all_channels()),
        max(1, result.kernel_ps),
        ANALYTIC.energy,
    )
    coefficient = load_calibration().for_key(calibration_key(spec, ANALYTIC)).energy
    result.energy = EnergyBreakdown(
        raw.active_pj * coefficient, raw.idle_pj * coefficient
    )
    return result


ARCHS = [*TABLE_III.values(), *EXTENSION_ARCHS.values()]
NEAR = {"avg_net_latency_ps", "avg_hops"}
#: Architectures whose runs put bytes on a memory network (GMN-ZC keeps
#: its data in CPU memory, reached over PCIe).
NETWORKED = {"GMN", "UMN", "CMN", "CMN-ZC"}


@pytest.mark.parametrize("workload", ["BP", "CG.S", "KMN"])
@pytest.mark.parametrize("spec", ARCHS, ids=[a.name for a in ARCHS])
def test_run_matches_union_matrix_reference(monkeypatch, spec, workload):
    profile = profile_for(WorkloadRef(workload, 0.25))
    got = analytic_run(spec, profile, cfg=ANALYTIC, collect_traffic=True)
    want = reference_run(monkeypatch, spec, profile)
    for f in dataclasses.fields(got):
        value, expected = getattr(got, f.name), getattr(want, f.name)
        if f.name in NEAR:
            assert value == pytest.approx(expected, rel=REL, abs=0.0), f.name
        elif f.name == "energy" and expected is not None:
            assert value.active_pj == pytest.approx(expected.active_pj, rel=REL)
            assert value.idle_pj == pytest.approx(expected.idle_pj, rel=REL)
        else:
            assert value == expected, f.name
    if spec.name in NETWORKED:
        assert got.energy is not None and got.energy.active_pj > 0
