"""Unit tests for channels: serialization, contention, energy accounting."""

import pytest

from repro.config import EnergyConfig
from repro.network.channel import Channel
from repro.system.energy import network_energy
from repro.units import bytes_per_ps


class TestSerialization:
    def test_serialization_time_matches_bandwidth(self):
        ch = Channel("c", 0, 1, gbps=20.0)
        # 16 bytes at 20 GB/s -> one 0.8 ns network cycle (within rounding).
        assert ch.serialization_ps(16) == pytest.approx(745, abs=60)

    def test_zero_bytes_is_free(self):
        ch = Channel("c", 0, 1, gbps=20.0)
        assert ch.serialization_ps(0) == 0

    def test_minimum_one_picosecond(self):
        ch = Channel("c", 0, 1, gbps=20.0)
        assert ch.serialization_ps(1) >= 1

    def test_width_scales_bandwidth(self):
        one = Channel("c1", 0, 1, gbps=20.0, width=1)
        two = Channel("c2", 0, 1, gbps=20.0, width=2)
        assert two.serialization_ps(1024) == pytest.approx(
            one.serialization_ps(1024) / 2, rel=0.01
        )

    def test_effective_gbps(self):
        ch = Channel("c", 0, 1, gbps=20.0, width=2)
        assert ch.effective_gbps == 40.0


class TestContention:
    def test_transmit_returns_arrival_time(self):
        ch = Channel("c", 0, 1, gbps=20.0)
        arrival = ch.transmit(160, now_ps=1000)
        assert arrival == 1000 + ch.serialization_ps(160)

    def test_back_to_back_transfers_queue(self):
        ch = Channel("c", 0, 1, gbps=20.0)
        first = ch.transmit(1600, now_ps=0)
        second = ch.transmit(1600, now_ps=0)
        assert second == 2 * first

    def test_gap_leaves_channel_idle(self):
        ch = Channel("c", 0, 1, gbps=20.0)
        first = ch.transmit(160, now_ps=0)
        second = ch.transmit(160, now_ps=first + 10_000)
        assert second == first + 10_000 + ch.serialization_ps(160)

    def test_queue_delay_reflects_backlog(self):
        ch = Channel("c", 0, 1, gbps=20.0)
        assert ch.queue_delay_ps(0) == 0
        ch.transmit(16_000, now_ps=0)
        assert ch.queue_delay_ps(0) == ch.busy_until
        assert ch.queue_delay_ps(ch.busy_until + 5) == 0

    def test_stats_accumulate(self):
        ch = Channel("c", 0, 1, gbps=20.0)
        ch.transmit(100, 0)
        ch.transmit(200, 0)
        assert ch.stats.packets == 2
        assert ch.stats.bytes == 300
        assert ch.stats.busy_ps == ch.busy_until


def _energy(ch, elapsed_ps):
    """Fig. 17 energy of one channel over its own byte counter."""
    return network_energy(
        [(ch, ch.stats.bytes)],
        elapsed_ps,
        EnergyConfig(active_pj_per_bit=2.0, idle_pj_per_bit=1.5),
    )


class TestEnergy:
    def test_active_energy(self):
        ch = Channel("c", 0, 1, gbps=20.0)
        ch.transmit(1000, 0)
        assert _energy(ch, 1_000_000).active_pj == 1000 * 8 * 2.0

    def test_idle_energy_is_capacity_minus_active(self):
        ch = Channel("c", 0, 1, gbps=20.0)
        elapsed = 1_000_000  # 1 us
        total_bits = bytes_per_ps(20.0) * elapsed * 8
        assert _energy(ch, elapsed).idle_pj == pytest.approx(total_bits * 1.5)
        ch.transmit(1000, 0)
        expected = (total_bits - 8000) * 1.5
        assert _energy(ch, elapsed).idle_pj == pytest.approx(expected)

    def test_idle_energy_never_negative(self):
        ch = Channel("c", 0, 1, gbps=20.0)
        ch.transmit(10**9, 0)  # more traffic than a tiny window's capacity
        assert _energy(ch, 10).idle_pj == 0.0
