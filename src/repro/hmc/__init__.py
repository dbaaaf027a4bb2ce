"""Hybrid Memory Cube substrate: DRAM banks, scheduled vaults, the HMC device."""

from .dram import Bank
from .hmc import HMC, HMCStats
from .sched import (
    SCHEDULERS,
    VaultScheduler,
    register_scheduler,
    requester_class,
    scheduler_for,
)
from .vault import ATOMIC_ALU_PS, Vault, VaultStats

__all__ = [
    "Bank",
    "HMC",
    "HMCStats",
    "ATOMIC_ALU_PS",
    "SCHEDULERS",
    "Vault",
    "VaultScheduler",
    "VaultStats",
    "register_scheduler",
    "requester_class",
    "scheduler_for",
]
