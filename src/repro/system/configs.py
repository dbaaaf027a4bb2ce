"""Evaluated multi-GPU architectures (Table III).

An :class:`ArchSpec` names an interconnect organization (Fig. 8), a data
transfer mode, and — for organizations with a memory network — a topology
and routing policy.  The seven named configurations of Table III are exposed
in :data:`TABLE_III`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict, List

from ..errors import ConfigError


class Organization(enum.Enum):
    """Where in the system a memory network is used (Section IV-B)."""

    PCIE = "pcie"  # conventional PCIe-based multi-GPU (Fig. 1(a))
    PCN = "pcn"    # NVLink-style processor-centric network (Fig. 1(b))
    CMN = "cmn"    # CPU memory network (Fig. 8(a))
    GMN = "gmn"    # GPU memory network (Fig. 8(b))
    UMN = "umn"    # unified memory network (Fig. 8(c))


class TransferMode(enum.Enum):
    """How kernel inputs/outputs move between host and device memory."""

    MEMCPY = "memcpy"      # blocking copies before/after kernels
    ZERO_COPY = "zero_copy"  # data stays in CPU memory, accessed remotely
    NO_COPY = "no_copy"    # UMN: one shared physical memory, nothing moves


@dataclass(frozen=True)
class ArchSpec:
    """One evaluated architecture."""

    name: str
    organization: Organization
    transfer: TransferMode
    #: Memory-network topology (GMN/UMN); ignored for PCIe, fixed for CMN.
    topology: str = "sfbfly"
    routing: str = "min"
    #: CTA assignment policy for SKE (Section III-B).
    cta_policy: str = "static"

    def __post_init__(self) -> None:
        if self.organization is Organization.UMN and self.transfer is not TransferMode.NO_COPY:
            raise ConfigError("UMN shares physical memory; use NO_COPY")
        if self.organization is not Organization.UMN and self.transfer is TransferMode.NO_COPY:
            raise ConfigError("NO_COPY requires the unified memory network")
        # Fail fast on names that would otherwise only blow up deep inside
        # the builder / network / scheduler (lazy imports: these registries
        # sit below repro.system in the import graph, but resolving them at
        # module import time would still order-couple the packages).
        from ..core.cta_scheduler import SCHEDULE_POLICIES
        from ..network.routing import ROUTING_POLICIES
        from ..network.topologies import BUILDERS

        if self.topology not in BUILDERS:
            raise ConfigError(
                f"unknown topology {self.topology!r} for architecture "
                f"{self.name!r}; valid: {sorted(BUILDERS)}"
            )
        if self.routing not in ROUTING_POLICIES:
            raise ConfigError(
                f"unknown routing policy {self.routing!r} for architecture "
                f"{self.name!r}; valid: {sorted(ROUTING_POLICIES)}"
            )
        if self.cta_policy not in SCHEDULE_POLICIES:
            raise ConfigError(
                f"unknown CTA policy {self.cta_policy!r} for architecture "
                f"{self.name!r}; valid: {sorted(SCHEDULE_POLICIES)}"
            )

    def data_clusters(self, num_gpus: int) -> List[int]:
        """Clusters that back kernel data under this architecture's
        transfer mode (Section VI-B); the CPU's cluster is ``num_gpus``."""
        if self.transfer is TransferMode.MEMCPY:
            return list(range(num_gpus))
        if self.transfer is TransferMode.ZERO_COPY:
            return [num_gpus]
        return list(range(num_gpus + 1))  # NO_COPY: all physical memory

    def with_(self, **overrides) -> "ArchSpec":
        return replace(self, **overrides)


def _spec(name: str, org: Organization, transfer: TransferMode, **kw) -> ArchSpec:
    return ArchSpec(name=name, organization=org, transfer=transfer, **kw)


#: The seven architectures of Table III.
TABLE_III: Dict[str, ArchSpec] = {
    "PCIe": _spec("PCIe", Organization.PCIE, TransferMode.MEMCPY),
    "PCIe-ZC": _spec("PCIe-ZC", Organization.PCIE, TransferMode.ZERO_COPY),
    "CMN": _spec("CMN", Organization.CMN, TransferMode.MEMCPY),
    "CMN-ZC": _spec("CMN-ZC", Organization.CMN, TransferMode.ZERO_COPY),
    "GMN": _spec("GMN", Organization.GMN, TransferMode.MEMCPY),
    "GMN-ZC": _spec("GMN-ZC", Organization.GMN, TransferMode.ZERO_COPY),
    "UMN": _spec("UMN", Organization.UMN, TransferMode.NO_COPY),
}

#: Extension architectures (not in Table III): an NVLink-style
#: processor-centric network, the alternative the paper contrasts in
#: Section II (Fig. 1(b)).
EXTENSION_ARCHS: Dict[str, ArchSpec] = {
    "NVLink": _spec("NVLink", Organization.PCN, TransferMode.MEMCPY),
    "NVLink-ZC": _spec("NVLink-ZC", Organization.PCN, TransferMode.ZERO_COPY),
}


#: Case-folded name -> spec, over Table III, the extensions, and any
#: fabric-registered architectures.  ``get_spec`` is one dict lookup.
_SPEC_INDEX: Dict[str, ArchSpec] = {}


def register_arch(spec: ArchSpec) -> ArchSpec:
    """Make ``spec`` resolvable by name through :func:`get_spec`.

    Fabric packages call this (via
    :func:`repro.system.fabric.register_fabric`) to publish the
    architectures they ship; re-registering the identical spec is a no-op,
    a *different* spec under a taken name is an error.
    """
    key = spec.name.casefold()
    existing = _SPEC_INDEX.get(key)
    if existing is not None and existing != spec:
        raise ConfigError(
            f"architecture name {spec.name!r} is already registered "
            f"(as {existing})"
        )
    _SPEC_INDEX[key] = spec
    return spec


for _spec_entry in (*TABLE_III.values(), *EXTENSION_ARCHS.values()):
    register_arch(_spec_entry)
del _spec_entry


def available_archs() -> List[str]:
    """Every resolvable architecture name, in registration order."""
    return [spec.name for spec in _SPEC_INDEX.values()]


def get_spec(name: str) -> ArchSpec:
    """Look up an architecture by case-insensitive name: Table III, the
    extensions, and fabric-registered architectures."""
    try:
        return _SPEC_INDEX[name.casefold()]
    except KeyError:
        raise ConfigError(
            f"unknown architecture {name!r}; available: {available_archs()}"
        ) from None
