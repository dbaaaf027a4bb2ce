"""Tests for the pluggable fabric layer (Fig. 8 organizations).

Covers the registry itself, the spec-validation error paths, and — the
extension story the registry exists for — a toy organization wired up
with one fabric class and one ``register_fabric`` call, never touching
``MultiGPUSystem``.
"""

import pytest

from repro.errors import ConfigError
from repro.mem import AccessType, MemoryAccess
from repro.system.builder import MultiGPUSystem
from repro.system.configs import (
    _SPEC_INDEX,
    ArchSpec,
    Organization,
    TransferMode,
    available_archs,
    get_spec,
    register_arch,
)
from repro.system.fabric import (
    FABRICS,
    CMNFabric,
    Fabric,
    GMNFabric,
    PCIeFabric,
    PCNFabric,
    UMNFabric,
    fabric_for,
    register_fabric,
)
from repro.system.run import run_workload
from repro.system.spec import SystemSpec, WorkloadRef
from repro.workloads.vectoradd import make_vectoradd
from tests.conftest import tiny_system_config


class TestRegistry:
    def test_builtin_organizations_registered(self):
        assert FABRICS[Organization.PCIE] is PCIeFabric
        assert FABRICS[Organization.PCN] is PCNFabric
        assert FABRICS[Organization.CMN] is CMNFabric
        assert FABRICS[Organization.GMN] is GMNFabric
        assert FABRICS[Organization.UMN] is UMNFabric

    def test_fabric_for_unknown_organization(self):
        with pytest.raises(ConfigError, match="no fabric registered"):
            fabric_for("infinity-fabric")

    def test_reregister_same_class_is_noop(self):
        register_fabric(Organization.UMN, UMNFabric)
        assert FABRICS[Organization.UMN] is UMNFabric

    def test_register_refuses_overwrite(self):
        with pytest.raises(ConfigError, match="already has fabric"):
            register_fabric(Organization.UMN, PCIeFabric)

    def test_builder_fabric_matches_registry(self):
        system = MultiGPUSystem(get_spec("GMN"), tiny_system_config(2))
        assert type(system.fabric) is FABRICS[Organization.GMN]


class TestSpecValidation:
    """ArchSpec fails fast, naming the valid set (satellite: error paths)."""

    @pytest.mark.parametrize("arch", ["CMN", "GMN", "UMN"])
    def test_unknown_topology_per_network_org(self, arch):
        with pytest.raises(ConfigError, match="unknown topology .* valid:"):
            get_spec(arch).with_(topology="moebius")

    def test_unknown_routing(self):
        with pytest.raises(ConfigError, match="unknown routing policy .* valid:"):
            get_spec("UMN").with_(routing="hot-potato")

    def test_unknown_cta_policy(self):
        with pytest.raises(ConfigError, match="unknown CTA policy .* valid:"):
            get_spec("UMN").with_(cta_policy="oracle")

    def test_error_names_valid_topologies(self):
        with pytest.raises(ConfigError, match="sfbfly"):
            get_spec("GMN").with_(topology="moebius")

    def test_invalid_org_transfer_combinations(self):
        with pytest.raises(ConfigError, match="NO_COPY"):
            ArchSpec("x", Organization.UMN, TransferMode.MEMCPY)
        with pytest.raises(ConfigError, match="unified memory network"):
            ArchSpec("x", Organization.GMN, TransferMode.NO_COPY)


class TestArchRegistry:
    def test_get_spec_is_case_insensitive(self):
        assert get_spec("gmn-zc") is get_spec("GMN-ZC")

    def test_register_arch_identical_is_noop(self):
        spec = get_spec("UMN")
        assert register_arch(spec) is spec

    def test_register_arch_collision_is_error(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_arch(get_spec("UMN").with_(routing="ugal"))


# ---------------------------------------------------------------------------
# A toy extension organization: the "adding a new organization" walkthrough
# from docs/extending.md, exercised end to end.
# ---------------------------------------------------------------------------
class TeleportFabric(Fabric):
    """Idealized full crossbar: every terminal has a direct link to every
    cluster.  No network, no PCIe switch — the smallest possible fabric."""

    paths = {
        "gpu": ("direct", "direct", "direct"),
        "cpu": ("direct", None, "direct"),
    }

    def build(self):
        system = self.system
        for cluster in range(system.num_gpus + 1):
            for g in range(system.num_gpus):
                self._build_direct_links(f"gpu{g}", cluster)
            self._build_direct_links("cpu", cluster)


#: Registry keys need not be Organization members — any hashable works.
TSM_ORG = "tsm"
TSM_SPEC = ArchSpec("TSM", TSM_ORG, TransferMode.ZERO_COPY)


@pytest.fixture
def tsm():
    register_fabric(TSM_ORG, TeleportFabric, archs=[TSM_SPEC])
    try:
        yield TSM_SPEC
    finally:
        FABRICS.pop(TSM_ORG, None)
        _SPEC_INDEX.pop("tsm", None)


class TestToyOrganization:
    def test_registered_arch_resolvable_by_name(self, tsm):
        assert get_spec("tsm") is tsm
        assert "TSM" in available_archs()

    def test_builder_wires_the_toy_fabric(self, tsm):
        system = MultiGPUSystem(tsm, tiny_system_config(2))
        assert isinstance(system.fabric, TeleportFabric)
        assert system.network is None and system.pcie is None
        # Full crossbar: (2 GPUs + CPU) x 3 clusters x HMCs per cluster.
        hmcs = system.hmcs_per_cluster
        assert len(system._direct_links) == 3 * 3 * hmcs

    def test_remote_read_completes(self, tsm):
        system = MultiGPUSystem(tsm, tiny_system_config(2))
        paddr = system.mapping.page_frame_base(
            system.cpu_cluster, 5, system.cfg.page_bytes
        )
        access = MemoryAccess(
            paddr=paddr, size=128, type=AccessType.READ,
            requester="gpu0", decoded=system.mapping.decode(paddr),
        )
        done = []
        system._gpu_request(0, access, lambda: done.append(system.sim.now))
        system.sim.run()
        assert done and done[0] > 0

    def test_end_to_end_run(self, tsm):
        result = run_workload(
            tsm,
            make_vectoradd(num_ctas=8, lines_per_cta=2),
            cfg=tiny_system_config(2),
        )
        assert result.total_ps > 0
        assert result.h2d_ps == 0  # zero-copy: no blocking copies

    def test_analytic_tier_costs_it(self, tsm):
        # The analytic tier reads the same path table the packet tier binds.
        from repro.analytic import analytic_run

        result = analytic_run(
            tsm,
            make_vectoradd(num_ctas=8, lines_per_cta=2),
            cfg=tiny_system_config(2),
        )
        assert result.total_ps > 0
        assert result.h2d_ps == 0

    def test_analytic_tier_rejects_unregistered_org(self):
        from repro.analytic import analytic_run

        spec = ArchSpec("Nowhere", "nowhere", TransferMode.ZERO_COPY)
        with pytest.raises(ConfigError, match="no fabric registered"):
            analytic_run(
                spec,
                make_vectoradd(num_ctas=8, lines_per_cta=2),
                cfg=tiny_system_config(2),
            )

    def test_spec_roundtrip_preserves_extension_org(self, tsm):
        spec = SystemSpec.make(tsm, WorkloadRef("vectoradd", 0.1))
        again = SystemSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.arch.organization == TSM_ORG
        assert again.cache_key() == spec.cache_key()


# ---------------------------------------------------------------------------
# Both tiers size wire messages with repro.network.packet.wire_bytes: the
# request and response of a 96 B access carry the header plus these bytes.
# ---------------------------------------------------------------------------
WIRE_DATA_BYTES = {
    AccessType.READ: (0, 96),
    AccessType.WRITE: (96, 0),
    AccessType.ATOMIC: (96, 96),
}


@pytest.mark.parametrize("kind", list(AccessType), ids=lambda k: k.value)
@pytest.mark.parametrize("header", [16, 24])
def test_wire_sizes_match_packet_rules(kind, header):
    from repro.network.packet import wire_bytes

    request, response = WIRE_DATA_BYTES[kind]
    assert wire_bytes(kind, 96, header) == header + request
    assert wire_bytes(kind, 96, header, response=True) == header + response
