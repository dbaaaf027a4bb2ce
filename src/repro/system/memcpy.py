"""Blocking host<->device copy model (Table III transfer modes).

With ``memcpy`` transfer the kernel blocks until the copy completes
(Section VI-B), so the copy never overlaps network traffic from kernels and
an analytic bulk-transfer model is exact for our purposes: latency plus
volume over the bottleneck bandwidth of the copy path.

Each organization's fabric declares its copy path
(:meth:`~repro.system.fabric.base.Fabric.copy_path`): PCIe and GMN cross
the CPU's single PCIe link, the NVLink-style PCN fans out over the CPU's
per-GPU links, CMN rides the CPU memory network, and UMN has no copy (CPU
and GPUs share the physical memory).
"""

from __future__ import annotations

from typing import Tuple

from ..config import SystemConfig
from ..errors import ConfigError
from ..units import transfer_ps
from .configs import ArchSpec, TransferMode
from .fabric import fabric_for


def _copy_path(spec: ArchSpec, cfg: SystemConfig) -> Tuple[int, float]:
    path = fabric_for(spec.organization).copy_path(cfg)
    if path is None:
        raise ConfigError(f"{spec.organization} performs no memcpy")
    return path


def memcpy_bandwidth_gbps(spec: ArchSpec, cfg: SystemConfig) -> float:
    """Effective bulk-copy bandwidth between host and device memory."""
    return _copy_path(spec, cfg)[1]


def memcpy_time_ps(spec: ArchSpec, cfg: SystemConfig, num_bytes: int) -> int:
    """Time for one blocking host<->device copy of ``num_bytes``."""
    if num_bytes < 0:
        raise ConfigError(f"negative copy size {num_bytes}")
    if spec.transfer is not TransferMode.MEMCPY or num_bytes == 0:
        return 0
    latency, gbps = _copy_path(spec, cfg)
    return latency + transfer_ps(num_bytes, gbps)
