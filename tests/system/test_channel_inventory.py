"""Invariants of the interconnect inventory (``MultiGPUSystem.all_channels``).

Every organization lists each of its channels once — network, direct,
PCIe and PCN — and the PCIe/PCN totals are read off those channels, so
the inventory must account for every byte those fabrics move.
"""

import pytest

from repro.system import run_workload_detailed
from repro.system.configs import EXTENSION_ARCHS, TABLE_III
from repro.system.fabric.base import Fabric
from repro.workloads import get_workload
from tests.conftest import tiny_system_config

ARCHS = sorted(TABLE_III) + sorted(EXTENSION_ARCHS)


def _counting(monkeypatch, method):
    """Count calls of the Fabric transport primitive ``method``."""
    calls = []
    original = getattr(Fabric, method)

    def wrapper(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Fabric, method, wrapper)
    return calls


@pytest.mark.parametrize("workload", ["BP", "CG.S"])
@pytest.mark.parametrize("arch", ARCHS)
def test_inventory_invariants(monkeypatch, arch, workload):
    spec = {**TABLE_III, **EXTENSION_ARCHS}[arch]
    pcie_forwards = _counting(monkeypatch, "_pcie_forwarded")
    pcn_forwards = _counting(monkeypatch, "_pcn_forwarded")
    _, system = run_workload_detailed(
        spec, get_workload(workload, 0.1), cfg=tiny_system_config()
    )
    channels = system.all_channels()
    now = system.sim.now

    for ch in channels:
        assert 0 <= ch.stats.busy_ps <= now, (ch.name, ch.stats.busy_ps, now)
    names = [ch.name for ch in channels]
    assert len(names) == len(set(names))

    # The network scope (Fig. 17 energy) heads the inventory.
    net = system.network_channels()
    assert channels[: len(net)] == net
    if system.network is None:
        assert net == []
    else:
        assert {id(ch) for ch in net} == {
            id(ch) for ch in system.network.topo.all_channels()
        }

    if system.pcie is None:
        assert not pcie_forwards
    else:
        links = system.pcie.channels()
        up = [ch for ch in links if ch.name.endswith("->sw")]
        down = [ch for ch in links if ch.name.startswith("pcie:sw->")]
        assert len(up) == len(down) == system.num_gpus + 1
        assert sum(ch.stats.bytes for ch in up) == sum(ch.stats.bytes for ch in down)
        assert system.pcie.bytes == sum(ch.stats.bytes for ch in up)
        # A forwarded access crosses the switch twice: request, response.
        assert system.pcie.transactions == 2 * len(pcie_forwards)
    if system.pcn is None:
        assert not pcn_forwards
    else:
        assert system.pcn.transactions == 2 * len(pcn_forwards)
        assert system.pcn.bytes == sum(ch.stats.bytes for ch in system.pcn.channels())
    for fabric in (system.pcie, system.pcn):
        if fabric is not None:
            assert set(map(id, fabric.channels())) <= set(map(id, channels))
