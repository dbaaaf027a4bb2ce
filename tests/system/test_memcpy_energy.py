"""Tests for the memcpy model and the network energy model."""

import pytest

from repro.config import EnergyConfig, SystemConfig
from repro.errors import ConfigError
from repro.network.channel import Channel
from repro.system.configs import TABLE_III
from repro.system.energy import EnergyBreakdown, network_energy
from repro.system.memcpy import memcpy_bandwidth_gbps, memcpy_time_ps

CFG = SystemConfig()


class TestMemcpyModel:
    def test_zero_copy_costs_nothing(self):
        assert memcpy_time_ps(TABLE_III["PCIe-ZC"], CFG, 1 << 30) == 0

    def test_umn_costs_nothing(self):
        assert memcpy_time_ps(TABLE_III["UMN"], CFG, 1 << 30) == 0

    def test_pcie_uses_pcie_bandwidth(self):
        assert memcpy_bandwidth_gbps(TABLE_III["PCIe"], CFG) == CFG.pcie.gbps

    def test_gmn_memcpy_still_pcie_bound(self):
        # Section VI-B: GMN's network does not help CPU-GPU transfers.
        assert memcpy_bandwidth_gbps(TABLE_III["GMN"], CFG) == CFG.pcie.gbps

    def test_cmn_is_much_faster_than_pcie(self):
        pcie = memcpy_time_ps(TABLE_III["PCIe"], CFG, 1 << 26)
        cmn = memcpy_time_ps(TABLE_III["CMN"], CFG, 1 << 26)
        assert cmn < pcie / 5

    def test_cmn_bandwidth_bounded_by_both_ends(self):
        bw = memcpy_bandwidth_gbps(TABLE_III["CMN"], CFG)
        cpu_bw = CFG.cpu.num_channels * CFG.network.channel_gbps
        assert bw <= cpu_bw

    def test_time_scales_linearly(self):
        spec = TABLE_III["PCIe"]
        t1 = memcpy_time_ps(spec, CFG, 1 << 20)
        t2 = memcpy_time_ps(spec, CFG, 1 << 21)
        assert t2 - CFG.pcie.latency_ps == pytest.approx(
            2 * (t1 - CFG.pcie.latency_ps), rel=0.01
        )

    def test_zero_bytes_free(self):
        assert memcpy_time_ps(TABLE_III["PCIe"], CFG, 0) == 0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ConfigError):
            memcpy_time_ps(TABLE_III["PCIe"], CFG, -1)

    def test_umn_bandwidth_query_rejected(self):
        with pytest.raises(ConfigError):
            memcpy_bandwidth_gbps(TABLE_III["UMN"], CFG)


def _carried(channels):
    """Each channel paired with its own byte counter (the packet tier)."""
    return [(ch, ch.stats.bytes) for ch in channels]


class TestEnergyModel:
    def test_idle_only_channel(self):
        ch = Channel("c", 0, 1, gbps=20.0)
        e = network_energy(_carried([ch]), elapsed_ps=1_000_000)
        assert e.active_pj == 0
        assert e.idle_pj > 0

    def test_active_energy_proportional_to_bytes(self):
        ch = Channel("c", 0, 1, gbps=20.0)
        ch.transmit(1000, 0)
        e = network_energy(_carried([ch]), elapsed_ps=1_000_000, cfg=EnergyConfig())
        assert e.active_pj == 1000 * 8 * 2.0

    def test_more_channels_more_idle_energy(self):
        chans2 = [Channel(f"c{i}", 0, 1, gbps=20.0) for i in range(2)]
        chans4 = [Channel(f"c{i}", 0, 1, gbps=20.0) for i in range(4)]
        e2 = network_energy(_carried(chans2), 10**6)
        e4 = network_energy(_carried(chans4), 10**6)
        assert e4.idle_pj == pytest.approx(2 * e2.idle_pj)

    def test_shorter_runtime_lower_energy(self):
        # Fig. 17's core trade-off: same traffic, shorter window -> less
        # idle energy.
        ch = Channel("c", 0, 1, gbps=20.0)
        ch.transmit(1000, 0)
        slow = network_energy(_carried([ch]), 10**7)
        fast = network_energy(_carried([ch]), 10**6)
        assert fast.total_pj < slow.total_pj
        assert fast.active_pj == slow.active_pj

    def test_breakdown_addition(self):
        a = EnergyBreakdown(1.0, 2.0)
        b = EnergyBreakdown(3.0, 4.0)
        c = a + b
        assert c.active_pj == 4.0
        assert c.total_pj == 10.0
        assert c.total_uj == pytest.approx(10.0 / 1e6)
