"""Tests for architecture specs (Table III)."""

import pytest

from repro.errors import ConfigError
from repro.system.configs import (
    TABLE_III,
    ArchSpec,
    Organization,
    TransferMode,
    get_spec,
)


class TestTableIII:
    def test_seven_architectures(self):
        assert len(TABLE_III) == 7
        assert set(TABLE_III) == {
            "PCIe",
            "PCIe-ZC",
            "CMN",
            "CMN-ZC",
            "GMN",
            "GMN-ZC",
            "UMN",
        }

    def test_umn_is_no_copy(self):
        assert TABLE_III["UMN"].transfer is TransferMode.NO_COPY

    def test_zc_variants(self):
        for name in ("PCIe-ZC", "CMN-ZC", "GMN-ZC"):
            assert TABLE_III[name].transfer is TransferMode.ZERO_COPY

    def test_lookup_case_insensitive(self):
        assert get_spec("umn") is TABLE_III["UMN"]

    def test_lookup_unknown(self):
        with pytest.raises(ConfigError):
            get_spec("InfinityFabric")

    def test_extension_archs_resolvable(self):
        assert get_spec("NVLink").organization.value == "pcn"


class TestSpecValidation:
    def test_umn_requires_no_copy(self):
        with pytest.raises(ConfigError):
            ArchSpec("x", Organization.UMN, TransferMode.MEMCPY)

    def test_no_copy_requires_umn(self):
        with pytest.raises(ConfigError):
            ArchSpec("x", Organization.GMN, TransferMode.NO_COPY)

    def test_with_override(self):
        spec = TABLE_III["GMN"].with_(topology="smesh", routing="ugal")
        assert spec.topology == "smesh"
        assert spec.routing == "ugal"
        assert TABLE_III["GMN"].topology == "sfbfly"  # original untouched
