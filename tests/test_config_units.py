"""Tests for configuration dataclasses (Table I) and unit helpers."""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.config import (
    CacheConfig,
    CPUConfig,
    DEFAULT_CONFIG,
    DRAMTiming,
    EnergyConfig,
    GPUConfig,
    HMCConfig,
    NetworkConfig,
    PCIeConfig,
    SystemConfig,
)
from repro.errors import ConfigError
from repro.network.topologies import direct_link_width
from repro.units import GB, KB, MB, bytes_per_ps, transfer_ps


class TestTableIValues:
    """The load-bearing Table I numbers, pinned."""

    def test_gpu_defaults(self):
        gpu = GPUConfig()
        assert gpu.num_sms == 64
        assert gpu.hmcs_per_gpu == 4
        assert gpu.max_ctas_per_sm == 8
        assert gpu.l1.size_bytes == 32 * KB
        assert gpu.l1.ways == 4
        assert gpu.l1.line_bytes == 128
        assert gpu.l2.size_bytes == 2 * MB
        assert gpu.l2.ways == 16
        assert gpu.num_channels == 8

    def test_hmc_defaults(self):
        hmc = HMCConfig()
        assert hmc.num_vaults == 16
        assert hmc.banks_per_vault == 16
        assert hmc.vault_queue_entries == 16

    def test_dram_timing(self):
        t = DRAMTiming()
        assert (t.tRP, t.tCCD, t.tRCD, t.tCL, t.tWR, t.tRAS) == (11, 4, 11, 11, 12, 22)
        assert t.tCK_ps == 1250

    def test_cpu_defaults(self):
        cpu = CPUConfig()
        assert cpu.line_bytes == 64
        assert cpu.l2_size_bytes == 16 * MB

    def test_network_defaults(self):
        net = NetworkConfig()
        assert net.channel_gbps == 20.0
        assert net.pipeline_stages == 4
        assert net.serdes_ps == 3200
        assert net.message_classes == 2
        assert net.vcs_per_class == 6
        assert net.hop_latency_ps == 4 * 800 + 3200

    def test_pcie_defaults(self):
        assert PCIeConfig().gbps == 15.75

    def test_energy_defaults(self):
        e = EnergyConfig()
        assert e.active_pj_per_bit == 2.0
        assert e.idle_pj_per_bit == 1.5

    def test_default_system_is_4gpu_16hmc(self):
        assert DEFAULT_CONFIG.num_gpus == 4
        assert DEFAULT_CONFIG.num_gpus * DEFAULT_CONFIG.gpu.hmcs_per_gpu == 16
        assert DEFAULT_CONFIG.page_bytes == 4 * KB


class TestValidation:
    def test_cache_geometry_validated(self):
        with pytest.raises(ConfigError):
            CacheConfig(1000, 3, 128, 1)

    def test_num_sets(self):
        cfg = CacheConfig(32 * KB, 4, 128, 1)
        assert cfg.num_sets == 64

    def test_zero_gpus_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_gpus=0)

    def test_page_not_multiple_of_line_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(page_bytes=100)

    def test_scaled_copies(self):
        cfg = DEFAULT_CONFIG.scaled(num_gpus=8)
        assert cfg.num_gpus == 8
        assert DEFAULT_CONFIG.num_gpus == 4

    def test_channels_per_local_hmc(self):
        assert direct_link_width(DEFAULT_CONFIG, "gpu0") == 2


class TestEverySettingIsRead:
    def test_every_config_field_is_read_outside_config_py(self):
        """Every init field of the ``SystemConfig`` tree is read somewhere
        in ``src/repro`` outside ``config.py``: a setting nothing reads
        still enters the canonical spec and so the cache key, yet cannot
        change a row.

        A read is an attribute load (``cfg.hmc.num_vaults``) or a
        ``getattr`` with a literal name.  Inside ``config.py`` only the
        ``__post_init__`` reads count, where ``DRAMTiming`` turns its
        cycle counts into the picosecond latencies the DRAM model reads.

        The check is by name.  A read of ``x.num_channels`` counts for
        every field called ``num_channels``, so a field that shares its
        name with a field that is read passes unseen: ``HMCConfig`` once
        carried an unread ``num_channels`` beside the GPU's and CPU's,
        which are read.  Such a name needs a look by hand.
        """
        root = Path(repro.__file__).resolve().parent
        read = set()
        for path in root.rglob("*.py"):
            tree = ast.parse(path.read_text())
            if path == root / "config.py":
                tree = ast.Module(
                    body=[
                        node
                        for node in ast.walk(tree)
                        if isinstance(node, ast.FunctionDef)
                        and node.name == "__post_init__"
                    ],
                    type_ignores=[],
                )
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "getattr"
                    and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)
                ):
                    read.add(node.args[1].value)
        unread = []
        pending = [SystemConfig()]
        while pending:
            config = pending.pop()
            for f in dataclasses.fields(config):
                if not f.init:
                    continue
                value = getattr(config, f.name)
                if dataclasses.is_dataclass(value):
                    pending.append(value)
                if f.name not in read:
                    unread.append(f"{type(config).__name__}.{f.name}")
        assert not unread, f"config fields no code reads: {sorted(set(unread))}"


class TestUnits:
    def test_bytes_per_ps(self):
        # 20 GB/s ~= 0.0215 bytes/ps
        assert bytes_per_ps(20.0) == pytest.approx(20 * GB / 1e12)

    def test_transfer_ps_linear(self):
        assert transfer_ps(2000, 20.0) == pytest.approx(2 * transfer_ps(1000, 20.0), rel=0.01)

    def test_transfer_zero(self):
        assert transfer_ps(0, 20.0) == 0

    def test_transfer_minimum_one(self):
        assert transfer_ps(1, 1e9) >= 1
