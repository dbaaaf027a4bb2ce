"""Invariants of the interconnect inventory (``MultiGPUSystem.all_channels``).

Every organization lists each of its channels once — network, direct,
PCIe and PCN — and the PCIe/PCN totals are read off those channels, so
the inventory must account for every byte those fabrics move.  A drained
run also leaves no network request waiting for its response.
"""

import pytest

from repro.system import run_workload_detailed
from repro.system.configs import EXTENSION_ARCHS, TABLE_III
from repro.system.fabric.base import Fabric
from repro.workloads import get_workload
from tests.conftest import tiny_system_config

ARCHS = sorted(TABLE_III) + sorted(EXTENSION_ARCHS)


def _counting_forwards(monkeypatch):
    """Record the link of every call to the forwarded transport primitive."""
    links = []
    original = Fabric._forwarded

    def wrapper(self, link, *args, **kwargs):
        links.append(link)
        return original(self, link, *args, **kwargs)

    monkeypatch.setattr(Fabric, "_forwarded", wrapper)
    return links


@pytest.mark.parametrize("workload", ["BP", "CG.S"])
@pytest.mark.parametrize("arch", ARCHS)
def test_inventory_invariants(monkeypatch, arch, workload):
    spec = {**TABLE_III, **EXTENSION_ARCHS}[arch]
    forwards = _counting_forwards(monkeypatch)
    _, system = run_workload_detailed(
        spec, get_workload(workload, 0.1), cfg=tiny_system_config()
    )
    pcie_forwards = [link for link in forwards if link is system.pcie]
    pcn_forwards = [link for link in forwards if link is system.pcn]
    assert len(pcie_forwards) + len(pcn_forwards) == len(forwards)
    # Every access the fabric sent got its one response.
    assert system._pending == {}

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
