"""System configuration dataclasses.

These encode Table I of the paper (GPU, CPU, and HMC parameters) plus the
interconnect parameters given in Section VI-A.  Every simulator component
takes its parameters from these dataclasses so that experiments can sweep
them without touching component code.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from .errors import ConfigError
from .units import KB, MB

#: The fidelity tiers a system can run at: "packet" (event-driven packet
#: network, the fast default), "flit" (wormhole + virtual channels +
#: credits; validation use), and "analytic" (calibrated capacity model,
#: milliseconds per sweep row; see :mod:`repro.analytic`).
NETWORK_MODELS = ("analytic", "flit", "packet")


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of a set-associative cache."""

    size_bytes: int
    ways: int
    line_bytes: int
    hit_latency_ps: int

    def __post_init__(self) -> None:
        if self.size_bytes % (self.ways * self.line_bytes):
            raise ConfigError(
                f"cache size {self.size_bytes} not divisible by "
                f"{self.ways} ways x {self.line_bytes} B lines"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)


@dataclass(frozen=True)
class GPUConfig:
    """Per-GPU parameters (Table I, "GPU" section).

    Only what the phase-level SM consumes: Table I's SIMD width, threads,
    registers and shared memory per SM are not simulated (DESIGN.md
    section 2).
    """

    num_sms: int = 64
    hmcs_per_gpu: int = 4
    max_ctas_per_sm: int = 8
    #: Outstanding L1 misses allowed per SM before issue stalls.
    mshrs_per_sm: int = 64
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * KB, 4, 128, 714 * 2)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(2 * MB, 16, 128, 1_429 * 8)
    )
    #: High-speed channels on the GPU package (Section VI-A: 8 per GPU).
    num_channels: int = 8


@dataclass(frozen=True)
class CPUConfig:
    """Host CPU parameters (Table I, "CPU" section).

    The out-of-order core is modeled as a latency-bound memory client with a
    bounded number of outstanding misses (its effective memory-level
    parallelism); see DESIGN.md section 2.  Table I's issue width, ROB
    size and L1 latency are therefore not simulated, and the CPU cluster
    has ``GPUConfig.hmcs_per_gpu`` HMCs like every other cluster.
    """

    line_bytes: int = 64
    l2_hit_ps: int = 10 * 250
    l2_size_bytes: int = 16 * MB
    #: Effective memory-level parallelism of the OoO core.
    max_outstanding: int = 8
    num_channels: int = 8


@dataclass(frozen=True)
class DRAMTiming:
    """DRAM timing parameters in DRAM clock cycles (Table I, tCK = 1.25 ns)."""

    tCK_ps: int = 1_250
    tRP: int = 11
    tCCD: int = 4
    tRCD: int = 11
    tCL: int = 11
    tWR: int = 12
    tRAS: int = 22

    # Derived picosecond latencies (set in __post_init__).  Bank.access runs
    # once per DRAM command, so the per-command cycle sums and tCK
    # multiplications are hoisted here.
    hit_ps: int = field(init=False, repr=False, compare=False)
    empty_ps: int = field(init=False, repr=False, compare=False)
    conflict_ps: int = field(init=False, repr=False, compare=False)
    conflict_wr_ps: int = field(init=False, repr=False, compare=False)
    ccd_ps: int = field(init=False, repr=False, compare=False)
    ras_ps: int = field(init=False, repr=False, compare=False)
    cl_ps: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ps = self.ps
        object.__setattr__(self, "hit_ps", ps(self.tCL))
        object.__setattr__(self, "empty_ps", ps(self.tRCD + self.tCL))
        object.__setattr__(self, "conflict_ps", ps(self.tRP + self.tRCD + self.tCL))
        object.__setattr__(
            self, "conflict_wr_ps", ps(self.tWR + self.tRP + self.tRCD + self.tCL)
        )
        object.__setattr__(self, "ccd_ps", ps(self.tCCD))
        object.__setattr__(self, "ras_ps", ps(self.tRAS))
        object.__setattr__(self, "cl_ps", ps(self.tCL))

    def ps(self, cycles: int) -> int:
        return cycles * self.tCK_ps


@dataclass(frozen=True)
class HMCConfig:
    """Hybrid Memory Cube parameters (Table I, "HMC" section).

    Layers, capacity and links are not simulated: the address mapping
    sizes a cube from its vaults, banks and rows, and the links are the
    devices' channels (``GPUConfig.num_channels``, ``CPUConfig.num_channels``).
    """

    num_vaults: int = 16
    banks_per_vault: int = 16
    vault_queue_entries: int = 16
    timing: DRAMTiming = field(default_factory=DRAMTiming)
    #: Row size per bank; Table I's 4 GB cube over 16 vaults x 16 banks and
    #: 8 layers gives 2 KB rows, a typical HMC DRAM partition row size.
    row_bytes: int = 2 * KB
    #: Internal vault data bus width in bytes per DRAM cycle.
    vault_bus_bytes_per_cycle: int = 16
    #: Vault scheduling policy, a key in :data:`repro.hmc.sched.SCHEDULERS`
    #: ("frfcfs" is Table I's FR-FCFS; "fcfs", "frfcfs_cap", and
    #: "qos_staged" are the shipped alternatives).  Part of the canonical
    #: spec / cache identity: distinct policies never share cached rows.
    scheduler: str = "frfcfs"
    #: ``frfcfs_cap`` knob: consecutive grants to one (bank, row) before
    #: the row-hit preference expires and the oldest request wins.
    frfcfs_cap_streak: int = 4
    #: ``qos_staged`` knob: per-source batch quantum within the
    #: bandwidth (GPU) class.
    qos_batch_quantum: int = 8


@dataclass(frozen=True)
class NetworkConfig:
    """Memory-network parameters (Section VI-A)."""

    #: Per-direction bandwidth of one high-speed channel.
    channel_gbps: float = 20.0
    #: Router clock (HMC logic layer).
    router_cycle_ps: int = 800
    #: Router pipeline depth in router cycles.
    pipeline_stages: int = 4
    #: SerDes latency, per traversal (Section VI-A: 3.2 ns).
    serdes_ps: int = 3_200
    #: Pass-through hop latency (overlay network, Section V-C): the packet
    #: bypasses the SerDes and router datapath.
    passthrough_ps: int = 800
    message_classes: int = 2
    vcs_per_class: int = 6
    vc_buffer_bytes: int = 512
    #: Read/write request header size (HMC-style packetized interface).
    header_bytes: int = 16

    @property
    def hop_latency_ps(self) -> int:
        """Latency of a normal (non pass-through) router traversal."""
        return self.pipeline_stages * self.router_cycle_ps + self.serdes_ps


@dataclass(frozen=True)
class PCIeConfig:
    """16-lane PCIe v3.0 channel model (Section VI-A: 15.75 GB/s)."""

    gbps: float = 15.75
    #: One-way transaction latency through the switch fabric.
    latency_ps: int = 600 * 1_000
    header_bytes: int = 24


@dataclass(frozen=True)
class PCNConfig:
    """Processor-centric network a la NVLink (Fig. 1(b)).

    Point-to-point high-speed links between processors: every GPU pair gets
    ``links_per_pair`` links and the CPU gets ``cpu_links_per_gpu`` links to
    each GPU.  Remote GPU memory still traverses the remote GPU (the
    processor-centric limitation the paper contrasts with memory networks).
    """

    link_gbps: float = 20.0
    links_per_pair: int = 1
    cpu_links_per_gpu: int = 1
    #: One-way link latency (short on-board SerDes links).
    latency_ps: int = 200_000
    header_bytes: int = 16


@dataclass(frozen=True)
class EnergyConfig:
    """Interconnect energy model from [5] (Section VI-A)."""

    active_pj_per_bit: float = 2.0
    idle_pj_per_bit: float = 1.5


@dataclass(frozen=True)
class SystemConfig:
    """Full-system configuration tying all components together."""

    num_gpus: int = 4
    gpu: GPUConfig = field(default_factory=GPUConfig)
    cpu: CPUConfig = field(default_factory=CPUConfig)
    hmc: HMCConfig = field(default_factory=HMCConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    pcie: PCIeConfig = field(default_factory=PCIeConfig)
    pcn: PCNConfig = field(default_factory=PCNConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    page_bytes: int = 4 * KB
    #: Granularity of interleaving across a cluster's local HMCs
    #: ("line" = the paper's mapping; "page" = the Section V-A ablation).
    intra_cluster_interleave: str = "line"
    #: Fidelity tier: one of :data:`NETWORK_MODELS` — "packet" (fast,
    #: default), "flit" (wormhole + virtual channels + credits, several
    #: times slower; validation use), or "analytic" (calibrated capacity
    #: model; no event engine at all).
    network_model: str = "packet"
    #: Seed for page placement and any stochastic tie-breaking.
    seed: int = 1
    #: Livelock watchdog event budget per run: ``None`` uses the package
    #: default (:data:`repro.sim.watchdog.DEFAULT_MAX_EVENTS`, far above
    #: any real run), ``0`` disables the budget.  Operational knob only —
    #: excluded from the canonical spec / cache identity because it never
    #: affects a run's results, only whether a livelocked run is killed.
    watchdog_max_events: Optional[int] = field(
        default=None, metadata={"identity": False}
    )
    #: Optional wall-clock budget in seconds (same precedence and identity
    #: exclusion); chiefly for sweep workers, where one stuck point must
    #: not hold the whole pool hostage.
    watchdog_wall_s: Optional[float] = field(
        default=None, metadata={"identity": False}
    )

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ConfigError("num_gpus must be >= 1")
        if self.page_bytes % self.gpu.l2.line_bytes:
            raise ConfigError("page size must be a multiple of the line size")
        if self.network_model not in NETWORK_MODELS:
            raise ConfigError(
                f"unknown network model {self.network_model!r}; "
                f"valid: {sorted(NETWORK_MODELS)}"
            )
        if self.hmc.scheduler != "frfcfs":
            # Imported lazily: repro.hmc pulls this module back in, and
            # the default-configured path (DEFAULT_CONFIG at import time)
            # must not recurse into it.
            from .hmc.sched import SCHEDULERS

            if self.hmc.scheduler not in SCHEDULERS:
                raise ConfigError(
                    f"unknown scheduler {self.hmc.scheduler!r}; "
                    f"valid: {sorted(SCHEDULERS)}"
                )
            if self.network_model == "analytic":
                raise ConfigError(
                    "the analytic tier is calibrated for FR-FCFS only and "
                    f"does not model scheduler {self.hmc.scheduler!r}; run "
                    "it at an event-engine tier (--fidelity packet or "
                    f"flit), or use scheduler 'frfcfs' "
                    f"(registered schedulers: {sorted(SCHEDULERS)})"
                )

    def scaled(self, **overrides) -> "SystemConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **overrides)

    def with_overrides(
        self, fidelity: Optional[str] = None, scheduler: Optional[str] = None
    ) -> "SystemConfig":
        """This config at the ``--fidelity`` tier (``network_model``) and
        with the ``--scheduler`` vault policy (``hmc.scheduler``), each
        where given.  Both are part of the spec identity.  A non-default
        scheduler at the analytic tier raises :class:`ConfigError` (the
        analytic model is FR-FCFS-calibrated only)."""
        cfg = self
        if fidelity and cfg.network_model != fidelity:
            cfg = cfg.scaled(network_model=fidelity)
        if scheduler and cfg.hmc.scheduler != scheduler:
            cfg = cfg.scaled(hmc=dataclasses.replace(cfg.hmc, scheduler=scheduler))
        return cfg

    def with_watchdog(
        self, max_events: Optional[int] = None, wall_s: Optional[float] = None
    ) -> "SystemConfig":
        """This config with watchdog budgets (the CLI's ``--max-events`` /
        ``--wall-limit``) filled in where it leaves them unset; a budget
        the config sets wins.  Returns ``self`` when nothing changes."""
        overrides: Dict[str, Any] = {}
        if max_events is not None and self.watchdog_max_events is None:
            overrides["watchdog_max_events"] = max_events
        if wall_s is not None and self.watchdog_wall_s is None:
            overrides["watchdog_wall_s"] = wall_s
        return self.scaled(**overrides) if overrides else self


#: The default 4GPU-16HMC configuration used throughout the evaluation.
DEFAULT_CONFIG = SystemConfig()
