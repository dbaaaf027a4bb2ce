"""Pluggable interconnect fabrics, one per organization (Fig. 8).

The registry maps an :class:`~repro.system.configs.Organization` (or any
hashable key an extension chooses) to the :class:`~.base.Fabric` strategy
that wires it.  A fabric is its ``build()`` plus one request-path table
(:attr:`~.base.Fabric.paths`); ``MultiGPUSystem`` binds that table for the
packet tier and the analytic tier costs the same table, both through
:func:`fabric_for`.  Adding an organization is a new fabric module plus
one :func:`register_fabric` call — no builder or analytic edits (see
docs/extending.md for a walkthrough).
"""

from __future__ import annotations

from typing import Dict, Iterable, Type

from ...errors import ConfigError
from ..configs import ArchSpec, Organization, register_arch
from .base import DirectLink, Fabric, GPU_FORWARD_PS, NetEnvelope
from .cmn import CMNFabric
from .gmn import GMNFabric
from .pcie import PCIeFabric
from .pcn import PCNFabric
from .umn import UMNFabric

#: Organization -> fabric strategy class.
FABRICS: Dict[object, Type[Fabric]] = {}


def register_fabric(
    organization: object,
    fabric_cls: Type[Fabric],
    archs: Iterable[ArchSpec] = (),
) -> None:
    """Register ``fabric_cls`` as the wiring for ``organization``.

    ``archs`` optionally names ready-made :class:`ArchSpec` presets the
    fabric ships with; they become visible to
    :func:`repro.system.configs.get_spec` (and hence the CLI).
    """
    existing = FABRICS.get(organization)
    if existing is not None and existing is not fabric_cls:
        raise ConfigError(
            f"organization {organization!r} already has fabric "
            f"{existing.__name__}; refusing to overwrite with "
            f"{fabric_cls.__name__}"
        )
    FABRICS[organization] = fabric_cls
    for spec in archs:
        register_arch(spec)


def fabric_for(organization: object) -> Type[Fabric]:
    """Look up the fabric strategy class for an organization."""
    try:
        return FABRICS[organization]
    except KeyError:
        known = ", ".join(str(k) for k in FABRICS)
        raise ConfigError(
            f"no fabric registered for organization {organization!r}; "
            f"registered: {known}"
        ) from None


def make_fabric(system) -> Fabric:
    """Instantiate the fabric for ``system.spec.organization``."""
    return fabric_for(system.spec.organization)(system)


register_fabric(Organization.PCIE, PCIeFabric)
register_fabric(Organization.PCN, PCNFabric)
register_fabric(Organization.CMN, CMNFabric)
register_fabric(Organization.GMN, GMNFabric)
register_fabric(Organization.UMN, UMNFabric)

__all__ = [
    "FABRICS",
    "Fabric",
    "DirectLink",
    "NetEnvelope",
    "GPU_FORWARD_PS",
    "PCIeFabric",
    "PCNFabric",
    "CMNFabric",
    "GMNFabric",
    "UMNFabric",
    "fabric_for",
    "make_fabric",
    "register_fabric",
]
