"""repro: reproduction of "Multi-GPU System Design with Memory Networks"
(Kim, Lee, Jeong, Kim — MICRO 2014).

The package provides:

- the **SKE runtime** (:mod:`repro.core`): one virtual GPU over N physical
  GPUs, CTA scheduling policies, shared virtual memory, and the
  ``RW:CLH:BK:CT:VL:LC:CLL:BY`` address mapping;
- the **memory-network simulator** (:mod:`repro.network`): HMC-router
  topologies (sFBFLY, dFBFLY, dDFLY, sMESH, sTORUS, overlay, ...) with
  minimal and UGAL routing;
- the substrates: :mod:`repro.hmc` (FR-FCFS vaults, DRAM timing),
  :mod:`repro.gpu` (SMs, L1/L2), :mod:`repro.cpu`, :mod:`repro.pcie`;
- :mod:`repro.system`: the Table III architectures (PCIe/CMN/GMN/UMN) and
  the experiment runner;
- :mod:`repro.workloads`: the Table II suite as synthetic kernels.

Quickstart::

    from repro import get_spec, get_workload, run_workload

    result = run_workload(get_spec("UMN"), get_workload("KMN", scale=0.25))
    print(result.as_row())
"""

from .config import DEFAULT_CONFIG, SystemConfig
from .errors import (
    AddressError,
    ConfigError,
    MetricError,
    ReproError,
    RoutingError,
    SchedulerError,
    SimulationError,
    TopologyError,
)
from .obs import (
    ChromeTracer,
    EventLoopProfiler,
    Observability,
    Sampler,
)
from .system import (
    TABLE_III,
    ArchSpec,
    MultiGPUSystem,
    Organization,
    RunResult,
    TransferMode,
    geometric_mean,
    get_spec,
    run_workload,
    run_workload_detailed,
    system_report,
)
from .trace import TraceRecorder, load_trace, replay_trace
from .workloads import all_workloads, get_workload, make_vectoradd

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_CONFIG",
    "SystemConfig",
    "AddressError",
    "ChromeTracer",
    "ConfigError",
    "EventLoopProfiler",
    "MetricError",
    "Observability",
    "ReproError",
    "Sampler",
    "RoutingError",
    "SchedulerError",
    "SimulationError",
    "TopologyError",
    "TABLE_III",
    "ArchSpec",
    "MultiGPUSystem",
    "Organization",
    "RunResult",
    "TransferMode",
    "geometric_mean",
    "get_spec",
    "run_workload",
    "run_workload_detailed",
    "system_report",
    "TraceRecorder",
    "load_trace",
    "replay_trace",
    "all_workloads",
    "get_workload",
    "make_vectoradd",
    "__version__",
]
