"""Tests for the PCIe switch model."""

import pytest

from repro.config import PCIeConfig
from repro.errors import SimulationError
from repro.pcie.pcie import PCIeSwitch
from repro.sim.engine import Simulator
from repro.units import transfer_ps


def make_switch(devices=("cpu", "gpu0", "gpu1")):
    sim = Simulator()
    switch = PCIeSwitch(sim, PCIeConfig())
    for d in devices:
        switch.attach(d)
    return sim, switch


class TestTransactions:
    def test_transaction_completes_with_latency_and_serialization(self):
        sim, sw = make_switch()
        done = []
        sw.transaction("cpu", "gpu0", 1024, lambda: done.append(sim.now))
        sim.run()
        cfg = sw.cfg
        expected_min = cfg.latency_ps + 2 * transfer_ps(1024 + cfg.header_bytes, cfg.gbps)
        assert done[0] >= expected_min

    def test_bigger_payload_takes_longer(self):
        sim, sw = make_switch()
        done = {}
        sw.transaction("cpu", "gpu0", 64, lambda: done.setdefault("small", sim.now))
        sim.run()
        sim2, sw2 = make_switch()
        done2 = {}
        sw2.transaction("cpu", "gpu0", 1 << 20, lambda: done2.setdefault("big", sim2.now))
        sim2.run()
        assert done2["big"] > done["small"]

    def test_shared_uplink_serializes(self):
        """Two transfers from the same source contend on its uplink."""
        sim, sw = make_switch()
        finish = []
        size = 1 << 20
        sw.transaction("cpu", "gpu0", size, lambda: finish.append(sim.now))
        sw.transaction("cpu", "gpu1", size, lambda: finish.append(sim.now))
        sim.run()
        serialization = transfer_ps(size, sw.cfg.gbps)
        assert max(finish) - min(finish) >= serialization * 0.9

    def test_different_sources_overlap(self):
        sim, sw = make_switch()
        finish = []
        size = 1 << 20
        sw.transaction("gpu0", "cpu", size, lambda: finish.append(sim.now))
        sw.transaction("gpu1", "cpu", size, lambda: finish.append(sim.now))
        sim.run()
        # Downlink to cpu is shared, so they still serialize there — but the
        # uplinks overlap; total time is less than fully serial 4x transfers.
        assert max(finish) < 4 * transfer_ps(size, sw.cfg.gbps) + 2 * sw.cfg.latency_ps

    def test_unattached_device_raises(self):
        sim, sw = make_switch()
        with pytest.raises(SimulationError):
            sw.transaction("gpu9", "cpu", 64, lambda: None)

    def test_double_attach_raises(self):
        sim, sw = make_switch()
        with pytest.raises(SimulationError):
            sw.attach("cpu")


class TestStats:
    def test_bytes_and_transactions_counted(self):
        sim, sw = make_switch()
        sw.transaction("cpu", "gpu0", 100, lambda: None)
        sw.transaction("gpu0", "cpu", 200, lambda: None)
        sim.run()
        assert sw.transactions == 2
        assert sw.bytes == 300 + 2 * sw.cfg.header_bytes
        # Derived from the upstream links; the downstream ones carried
        # the same bytes.
        down = [ch for ch in sw.channels() if ch.name.startswith("pcie:sw->")]
        assert sum(ch.stats.bytes for ch in down) == sw.bytes

    def test_link_utilization(self):
        sim, sw = make_switch()
        sw.transaction("cpu", "gpu0", 1 << 20, lambda: None)
        sim.run()
        # The CPU's upstream link, read from the inventory the report sorts.
        up = next(ch for ch in sw.channels() if ch.name == "pcie:cpu->sw")
        assert 0 < up.stats.busy_ps / sim.now <= 1.0
