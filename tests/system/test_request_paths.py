"""Request paths per organization (Fig. 8; Fig. 9 for forwarded access).

The table below is the paper's, written out independently of the
fabrics.  Each fabric declares its own table once; this test checks that
the declaration matches, that one access through the packet tier's
memory ports calls exactly the transport primitive the table names, and
that the analytic tier costs the same pair with only that transport's
resources.  A forwarded request continues at the owner of the
destination cluster on the owner's own path, in both tiers.
"""

import pytest

from repro.analytic.model import _CapacityModel
from repro.errors import ConfigError
from repro.mem import AccessType, MemoryAccess
from repro.system.builder import MultiGPUSystem
from repro.system.configs import (
    EXTENSION_ARCHS,
    TABLE_III,
    Organization,
    TransferMode,
)
from repro.system.fabric import PCIeFabric
from repro.system.fabric.base import Fabric
from tests.conftest import tiny_system_config

SPECS = {**TABLE_III, **EXTENSION_ARCHS}

#: organization -> transport kind of
#:                   GPU->own   GPU->CPU    GPU->GPU    CPU->CPU  CPU->GPU
EXPECTED = {
    Organization.PCIE: ("direct", "pcie_fwd", "pcie_fwd", "direct", "pcie_fwd"),
    Organization.PCN: ("direct", "pcn_fwd", "pcn_fwd", "direct", "pcn_fwd"),
    Organization.CMN: ("direct", "net", "net_fwd", "net", "net_fwd"),
    Organization.GMN: ("net", "pcie_fwd", "net", "direct", "pcie_fwd"),
    Organization.UMN: ("net", "net", "net", "net", "net"),
}


def _expected(org, terminal_cluster, cluster, cpu_cluster):
    gpu_own, gpu_cpu, gpu_gpu, cpu_cpu, cpu_gpu = EXPECTED[org]
    if terminal_cluster == cpu_cluster:
        return cpu_cpu if cluster == cpu_cluster else cpu_gpu
    if cluster == terminal_cluster:
        return gpu_own
    return gpu_cpu if cluster == cpu_cluster else gpu_gpu


def _count_primitives(monkeypatch):
    """Record (kind, arguments) of every transport primitive call."""
    calls = []

    def counting(method, kind_of):
        original = getattr(Fabric, method)

        def wrapper(self, *args):
            calls.append((kind_of(self, args), args))
            return original(self, *args)

        monkeypatch.setattr(Fabric, method, wrapper)

    def link_kind(self, args):
        link = args[0]
        if link is self.system.pcie:
            return "pcie_fwd"
        return "pcn_fwd" if link is self.system.pcn else "unknown link"

    counting("_direct", lambda self, args: "direct")
    counting("_net_request", lambda self, args: "net")
    counting("_net_forwarded", lambda self, args: "net_fwd")
    counting("_forwarded", link_kind)
    return calls


def _pairs(num_gpus):
    """Every (terminal, its cluster, destination cluster); the CPU's
    cluster is ``num_gpus``."""
    clusters = range(num_gpus + 1)
    terminals = [(f"gpu{g}", g) for g in range(num_gpus)] + [("cpu", num_gpus)]
    return [(t, tc, c) for t, tc in terminals for c in clusters]


def _served_cluster(spec, terminal, cluster, cpu_cluster):
    """Under memcpy transfer the host works on its CPU-memory copy."""
    if terminal == "cpu" and spec.transfer is TransferMode.MEMCPY:
        return cpu_cluster
    return cluster


def _owner(cluster, cpu_cluster):
    return "cpu" if cluster == cpu_cluster else f"gpu{cluster}"


@pytest.mark.parametrize("arch", sorted(SPECS))
def test_packet_tier_calls_the_tabled_primitive(monkeypatch, arch):
    spec = SPECS[arch]
    calls = _count_primitives(monkeypatch)
    system = MultiGPUSystem(spec, tiny_system_config())
    cpu = system.cpu_cluster
    pairs = _pairs(system.num_gpus)
    for frame, (terminal, terminal_cluster, cluster) in enumerate(pairs):
        served = _served_cluster(spec, terminal, cluster, cpu)
        kind = _expected(spec.organization, terminal_cluster, served, cpu)
        own = _expected(spec.organization, served, served, cpu)
        assert system.fabric.path(terminal_cluster, served, cpu) == kind

        paddr = system.mapping.page_frame_base(cluster, frame, system.cfg.page_bytes)
        access = MemoryAccess(
            paddr=paddr, size=128, type=AccessType.READ,
            requester=terminal, decoded=system.mapping.decode(paddr),
        )
        done = []
        calls.clear()
        if terminal == "cpu":
            system._cpu_port(access, lambda: done.append(1))
        else:
            system._gpu_request(terminal_cluster, access, lambda: done.append(1))
        pair = (arch, terminal, cluster)
        assert [k for k, _ in calls] == [kind], pair
        args = calls[0][1]
        if kind in ("pcie_fwd", "pcn_fwd"):
            args = args[1:]  # after the link
        assert args[0] == terminal, pair
        if kind == "net":
            pass_through = spec.organization is Organization.UMN and terminal == "cpu"
            assert args[1] is pass_through, pair
        elif kind != "direct":
            assert args[1] == _owner(served, cpu), pair

        system.sim.run()
        if kind.endswith("_fwd"):  # the owner continues on its own path
            assert [k for k, _ in calls] == [kind, own], pair
        else:
            assert len(calls) == 1, pair
        assert done == [1], pair
        assert system._pending == {}, pair


def _resources(route):
    """Resource families a route visits, apart from its vault."""
    families = set()
    for key, _, _ in route.visits:
        parts = key.split(":")
        if parts[0] == "dlink":
            families.add(f"dlink:{parts[1]}")
        elif parts[0] != "vault":
            families.add(parts[0])
    return families


def _own_resources(kind, terminal):
    """Resources of a terminal's path to its own cluster."""
    return {f"dlink:{terminal}"} if kind == "direct" else set()


@pytest.mark.parametrize("arch", sorted(SPECS))
def test_analytic_route_visits_only_the_tabled_transport(arch):
    spec = SPECS[arch]
    model = _CapacityModel(spec, tiny_system_config(), "random", None, None)
    cpu = model.cpu_cluster
    for terminal, terminal_cluster, cluster in _pairs(model.num_gpus):
        served = _served_cluster(spec, terminal, cluster, cpu)
        kind = _expected(spec.organization, terminal_cluster, served, cpu)
        own = _expected(spec.organization, served, served, cpu)
        owner = _owner(served, cpu)
        route = model.route(terminal, terminal_cluster, served, AccessType.READ, 128)
        pair = (arch, terminal, cluster, kind)
        assert (f"vault:{served}", model.vaults_per_cluster) in {
            (key, servers) for key, servers, _ in route.visits
        }, pair
        hop = {"net_fwd": set(), "pcie_fwd": {"pcie"}, "pcn_fwd": {"pcn"}}
        if kind in hop:  # the hop there and back, then the owner's own path
            expected = hop[kind] | _own_resources(own, owner)
            on_network = kind == "net_fwd" or own == "net"
        else:
            expected = _own_resources(kind, terminal)
            on_network = kind == "net"
        assert _resources(route) == expected, pair
        assert bool(route.legs) is on_network, pair
        assert bool(route.flows) is on_network, pair


@pytest.mark.parametrize(
    "gpu_row, match",
    [
        (("direct", "direct", "teleport"), "valid: direct, net"),
        (("pcie_fwd", "direct", "direct"), "cannot forward to itself"),
    ],
)
def test_malformed_table_is_rejected_when_bound(gpu_row, match):
    class Malformed(PCIeFabric):
        paths = {"gpu": gpu_row, "cpu": ("direct", None, "direct")}

    system = MultiGPUSystem(TABLE_III["PCIe"], tiny_system_config(2))
    with pytest.raises(ConfigError, match=match):
        Malformed(system).bind_paths()
