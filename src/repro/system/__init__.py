"""System assembly: architectures, fabrics, builder, runner, energy,
metrics, and the canonical run spec."""

from .builder import MultiGPUSystem
from .configs import (
    TABLE_III,
    ArchSpec,
    Organization,
    TransferMode,
    available_archs,
    get_spec,
    register_arch,
)
from .energy import EnergyBreakdown, network_energy
from .fabric import FABRICS, Fabric, fabric_for, make_fabric, register_fabric
from .fabric.base import DirectLink, NetEnvelope
from .memcpy import memcpy_bandwidth_gbps, memcpy_time_ps
from .metrics import RunResult, geometric_mean
from .report import report_json, system_report
from .run import run_workload, run_workload_detailed
from .spec import SystemSpec, WorkloadRef

__all__ = [
    "DirectLink",
    "MultiGPUSystem",
    "NetEnvelope",
    "TABLE_III",
    "ArchSpec",
    "Organization",
    "TransferMode",
    "available_archs",
    "get_spec",
    "register_arch",
    "FABRICS",
    "Fabric",
    "fabric_for",
    "make_fabric",
    "register_fabric",
    "SystemSpec",
    "WorkloadRef",
    "EnergyBreakdown",
    "network_energy",
    "memcpy_bandwidth_gbps",
    "memcpy_time_ps",
    "RunResult",
    "geometric_mean",
    "report_json",
    "system_report",
    "run_workload",
    "run_workload_detailed",
]
