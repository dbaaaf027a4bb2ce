"""Vault controller: pluggable scheduling over the vault's DRAM banks.

Each vault has a bounded request queue (Table I: 16 entries, FR-FCFS
[48]); when the queue is full, arriving requests wait in the logic-layer
overflow buffer and are admitted as entries free up.  *Which* queued
request issues next is delegated to a :class:`~repro.hmc.sched.base.
VaultScheduler` strategy selected by ``HMCConfig.scheduler`` (default
FR-FCFS: row hits first, ties broken by age); the vault itself owns the
admitted-request count, the overflow buffer, the shared data bus, DRAM
timing, and statistics.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from functools import partial
from typing import Deque, Dict, List, Optional, Tuple

from ..config import HMCConfig
from ..errors import SimulationError
from ..mem import AccessType, MemoryAccess
from ..sim.engine import Simulator
from .dram import Bank
from .sched import scheduler_for
from .sched.base import CompletionCallback, QueuedRequest, requester_class

#: Extra latency charged for the logic-layer ALU of an atomic operation.
ATOMIC_ALU_PS = 2_500

_ATOMIC = AccessType.ATOMIC


@dataclass
class VaultStats:
    served: int = 0
    row_hits: int = 0
    atomics: int = 0
    total_queue_wait_ps: int = 0
    overflow_peak: int = 0
    #: Per requester class ("cpu"/"gpu"/"other", see
    #: :func:`repro.hmc.sched.requester_class`): served request counts and
    #: summed queue waits, the inputs to per-source latency and fairness
    #: columns in scheduler sweeps.
    class_served: Dict[str, int] = field(default_factory=dict)
    class_queue_wait_ps: Dict[str, int] = field(default_factory=dict)


class Vault:
    """One vault: banks + a shared data bus + a scheduled request queue."""

    def __init__(
        self,
        sim: Simulator,
        cfg: HMCConfig,
        vault_id: int = 0,
        name: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.cfg = cfg
        self.vault_id = vault_id
        self.name = name or f"vault{vault_id}"
        #: Banks are built on first access: most vaults in a sweep never
        #: see traffic, and eager construction dominated system build time.
        self._banks: Optional[List[Bank]] = None
        self.sched = scheduler_for(cfg.scheduler)(cfg)
        self.overflow: Deque[QueuedRequest] = collections.deque()
        self.bus_busy_until: int = 0
        self.stats = VaultStats()
        self._kick_at: Optional[int] = None
        self._next_seq = 0
        #: Requests admitted to ``sched`` and not yet picked.  The vault
        #: owns this count (``len(sched)`` is for introspection): it rises
        #: on every ``admit`` and falls on every request ``pick`` returns.
        self._admitted = 0
        # Per-instance copies of the config read on every service.
        self._queue_entries = cfg.vault_queue_entries
        self._bus_bytes = cfg.vault_bus_bytes_per_cycle

    @property
    def banks(self) -> List[Bank]:
        if self._banks is None:
            self._banks = [Bank() for _ in range(self.cfg.banks_per_vault)]
        return self._banks

    # ------------------------------------------------------------------
    def enqueue(self, access: MemoryAccess, on_done: CompletionCallback) -> None:
        """Accept a request; it is queued (or buffered on overflow)."""
        if access.decoded is None:
            raise SimulationError("memory access reached a vault without decode")
        now = self.sim.now
        req = QueuedRequest(access, on_done, now, self._next_seq)
        self._next_seq += 1
        if self._admitted < self._queue_entries:
            self.sched.admit(req)
            self._admitted += 1
        else:
            self.overflow.append(req)
            self.stats.overflow_peak = max(self.stats.overflow_peak, len(self.overflow))
        self._schedule_kick(now)

    # ------------------------------------------------------------------
    # Issue loop (policy-agnostic; selection lives in self.sched)
    # ------------------------------------------------------------------
    def _schedule_kick(self, when_ps: int) -> None:
        now = self.sim.now
        if when_ps < now:
            when_ps = now
        kick_at = self._kick_at
        if kick_at is not None and kick_at <= when_ps:
            return
        self._kick_at = when_ps
        self.sim.at(when_ps, self._kick)

    def _kick(self) -> None:
        self._kick_at = None
        if self.overflow:
            self._drain_overflow()
        # Per-kick snapshot of bank state: sim.now is constant across the
        # issue loop and a bank's readiness/open row only changes when this
        # loop issues to it, so (ready, open_row) is computed once per bank
        # per kick instead of once per candidate per issue iteration, and
        # refreshed only for the bank that was just issued to (the
        # scheduler drops the issued bank's entry on every pick).
        bank_state: Dict[int, Tuple[bool, Optional[int]]] = {}
        pick = self.sched.pick
        now = self.sim.now
        banks = self.banks
        while self._admitted:
            req = pick(bank_state, now, banks)
            if req is None:
                break
            self._admitted -= 1
            self._service(req, banks)
        if self.overflow:
            self._drain_overflow()
        if self._admitted:
            horizon = self.sched.horizon(now, banks)
            self._schedule_kick(max(horizon, now + 1))

    def _drain_overflow(self) -> None:
        overflow = self.overflow
        admit = self.sched.admit
        while overflow and self._admitted < self._queue_entries:
            admit(overflow.popleft())
            self._admitted += 1

    def _service(self, req: QueuedRequest, banks: List[Bank]) -> None:
        access = req.access
        decoded = access.decoded
        now = self.sim.now
        timing = self.cfg.timing
        bank = banks[decoded.bank]
        was_hit = bank.open_row == decoded.row
        data_done = bank.access(decoded.row, access.type, now, timing)
        self.sched.on_issue(req, was_hit)
        stats = self.stats
        if access.type is _ATOMIC:
            data_done += ATOMIC_ALU_PS
            stats.atomics += 1

        transfer_cycles = -(-access.size // self._bus_bytes)
        if transfer_cycles < 1:
            transfer_cycles = 1
        transfer_ps = transfer_cycles * timing.tCK_ps
        bus_busy = self.bus_busy_until
        bus_start = data_done if data_done > bus_busy else bus_busy
        done = bus_start + transfer_ps
        self.bus_busy_until = done

        stats.served += 1
        if was_hit:
            stats.row_hits += 1
        wait_ps = now - req.arrived_ps
        stats.total_queue_wait_ps += wait_ps
        cls = requester_class(access.requester)
        class_served = stats.class_served
        class_served[cls] = class_served.get(cls, 0) + 1
        class_wait = stats.class_queue_wait_ps
        class_wait[cls] = class_wait.get(cls, 0) + wait_ps

        sim = self.sim
        tracer = sim.tracer
        if tracer is not None:
            tracer.complete(
                "vault",
                access.type.name.lower(),
                now,
                done - now,
                tid=self.name,
                args={"bank": decoded.bank, "row_hit": was_hit},
            )

        sim.at(done, partial(req.on_done, access))
        # A completion frees a queue entry; give the overflow a chance.
        if self.overflow:
            self._schedule_kick(now)

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return self._admitted + len(self.overflow)

    @property
    def row_hit_rate(self) -> float:
        return self.stats.row_hits / self.stats.served if self.stats.served else 0.0
