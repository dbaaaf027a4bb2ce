"""The Hybrid Memory Cube device: logic-layer switch + 16 vaults.

The HMC is a pure memory device here; packetization and network traversal
are handled by :mod:`repro.network` and the system builders.  The logic
layer's switching cost toward a vault is charged by the network on delivery;
the vault controllers then provide FR-FCFS DRAM service.

Atomic operations are executed on the logic die near the vault controllers
(Section III-D): they occupy the target bank like a read and pay a small ALU
latency, and the result is returned with the response.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..config import HMCConfig
from ..errors import SimulationError
from ..mem import AccessType, MemoryAccess
from ..sim.engine import Simulator
from .vault import Vault

CompletionCallback = Callable[[MemoryAccess], None]

_READ = AccessType.READ
_WRITE = AccessType.WRITE


@dataclass
class HMCStats:
    reads: int = 0
    writes: int = 0
    atomics: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes + self.atomics


class HMC:
    """One memory cube: ``cfg.num_vaults`` vaults behind a logic layer."""

    def __init__(
        self,
        sim: Simulator,
        cfg: Optional[HMCConfig] = None,
        name: str = "hmc",
    ) -> None:
        self.sim = sim
        self.cfg = cfg or HMCConfig()
        self.name = name
        self.vaults: List[Vault] = [
            Vault(sim, self.cfg, vault_id=v, name=f"{name}.vault{v}")
            for v in range(self.cfg.num_vaults)
        ]
        self.stats = HMCStats()

    # ------------------------------------------------------------------
    def access(self, access: MemoryAccess, on_done: CompletionCallback) -> None:
        """Perform a memory access; ``on_done`` fires at data completion."""
        if access.decoded is None:
            raise SimulationError(f"{self.name}: access arrived without decoded address")
        vault_id = access.decoded.vault
        if not 0 <= vault_id < self.cfg.num_vaults:
            raise SimulationError(
                f"{self.name}: vault {vault_id} out of range "
                f"[0, {self.cfg.num_vaults})"
            )
        stats = self.stats
        kind = access.type
        if kind is _READ:
            stats.reads += 1
            stats.bytes_read += access.size
        elif kind is _WRITE:
            stats.writes += 1
            stats.bytes_written += access.size
        else:
            stats.atomics += 1
        self.vaults[vault_id].enqueue(access, on_done)

    # ------------------------------------------------------------------
    @property
    def row_hit_rate(self) -> float:
        served = sum(v.stats.served for v in self.vaults)
        hits = sum(v.stats.row_hits for v in self.vaults)
        return hits / served if served else 0.0

    @property
    def total_served(self) -> int:
        return sum(v.stats.served for v in self.vaults)

    def __repr__(self) -> str:  # pragma: no cover
        return f"HMC({self.name}, {self.cfg.num_vaults} vaults)"
