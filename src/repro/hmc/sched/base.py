"""Vault-scheduler strategy interface.

A :class:`VaultScheduler` owns the vault's admitted request queue and
decides, kick by kick, which request issues next.  The vault keeps
everything else — the admitted-request count, the overflow buffer, the
data bus, DRAM timing, stats, and kick scheduling — so a policy is just
queue bookkeeping plus a selection rule.  Policies register under a name
in :data:`repro.hmc.sched.SCHEDULERS` (the vault analogue of
:data:`repro.system.fabric.FABRICS`) and are selected with
``HMCConfig.scheduler``.

The contract mirrors how the built-in FR-FCFS loop always worked:

- ``admit`` appends a request in arrival order (``seq`` is the global
  admission sequence; sorting by it equals sorting by queue index).
- ``pick`` selects *and removes* the request to issue now, or returns
  ``None`` when no queued request's bank is ready.  It must remove
  exactly the request it returns: the vault counts admitted requests
  itself (one up per ``admit``, one down per returned request) and never
  asks the policy for its length on the hot path.  ``bank_state`` is the
  vault's per-kick ``(ready_now, open_row)`` snapshot keyed by bank id: a
  policy fills missing entries lazily and **must** drop the issued
  request's bank entry so the next iteration of the same kick sees that
  bank's new state.
- ``horizon`` is a lower bound on the next time any queued request could
  issue; the vault re-kicks then.  Only called while the queue is
  non-empty.
- ``on_issue`` observes every service (after the bank access started) so
  stateful policies (streak caps, batching) can update without touching
  the vault.
- ``__len__`` is the number of queued requests, for introspection and
  tests; it must equal the vault's own count.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ...mem import MemoryAccess

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (config -> sched)
    from ...config import HMCConfig
    from ..dram import Bank

CompletionCallback = Callable[[MemoryAccess], None]

#: bank id -> (ready_now, open_row), the vault's per-kick snapshot.
BankState = Dict[int, Tuple[bool, Optional[int]]]

class QueuedRequest:
    """One request admitted to a vault (a ``__slots__`` record: one is
    built per vault service)."""

    __slots__ = ("access", "on_done", "arrived_ps", "seq")

    def __init__(
        self,
        access: MemoryAccess,
        on_done: CompletionCallback,
        arrived_ps: int,
        seq: int = 0,
    ) -> None:
        self.access = access
        self.on_done = on_done
        self.arrived_ps = arrived_ps
        #: Admission order within the vault.  The queue preserves
        #: admission order, so sorting by ``seq`` is identical to sorting
        #: by queue index — which lets the bucketed FR-FCFS reproduce
        #: the flat scan's FR-FCFS tie-break exactly.
        self.seq = seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueuedRequest({self.access!r}, arrived_ps={self.arrived_ps}, "
            f"seq={self.seq})"
        )


@functools.lru_cache(maxsize=256)
def requester_class(requester: str) -> str:
    """Coarse QoS class of a requester id: "cpu", "gpu", or "other".

    The CPU host stamps ``"cpu"``, GPUs stamp ``"gpu0"``/``"gpu1"``/...;
    anything else (including an unstamped empty string) is "other" so a
    misbehaving traffic source degrades to best-effort instead of
    crashing a policy.  Memoized: every vault service classifies its
    requester, and a system has only a handful of distinct ids.
    """
    if requester.startswith("cpu") or requester == "host":
        return "cpu"
    if requester.startswith("gpu"):
        return "gpu"
    return "other"


class VaultScheduler:
    """Strategy interface for vault request scheduling (see module doc)."""

    #: Registry key; set by each concrete policy.
    name: str = ""

    def __init__(self, cfg: "HMCConfig") -> None:
        self.cfg = cfg

    def __len__(self) -> int:
        """Number of admitted (queued) requests."""
        raise NotImplementedError

    def admit(self, req: QueuedRequest) -> None:
        """Accept one request into the queue (arrival order)."""
        raise NotImplementedError

    def pick(
        self, bank_state: BankState, now: int, banks: List["Bank"]
    ) -> Optional[QueuedRequest]:
        """Select and remove the request to issue at ``now``, if any."""
        raise NotImplementedError

    def horizon(self, now: int, banks: List["Bank"]) -> int:
        """Earliest time any queued request's bank could accept an issue."""
        raise NotImplementedError

    def on_issue(self, req: QueuedRequest, was_hit: bool) -> None:
        """Hook: ``req`` was just issued (``was_hit``: open-row hit)."""


class FlatQueueScheduler(VaultScheduler):
    """Shared machinery for policies over a single flat queue.

    Subclasses supply :meth:`key`; the smallest key among ready requests
    issues.  With the key ``(is_hit, req.arrived_ps, idx)`` this scan is
    FR-FCFS itself: the tests keep that subclass as the oracle for the
    bucketed :class:`~.frfcfs.FRFCFSScheduler`, so alternative policies
    differ from the default only in their ordering rule.
    """

    def __init__(self, cfg: "HMCConfig") -> None:
        super().__init__(cfg)
        self.queue: List[QueuedRequest] = []

    def __len__(self) -> int:
        return len(self.queue)

    def admit(self, req: QueuedRequest) -> None:
        self.queue.append(req)

    def key(self, req: QueuedRequest, is_hit: int, idx: int):
        """Ordering key; lower issues first.  ``is_hit`` is 0 on an
        open-row hit, 1 otherwise (the FR-FCFS convention)."""
        raise NotImplementedError

    def pick(
        self, bank_state: BankState, now: int, banks: List["Bank"]
    ) -> Optional[QueuedRequest]:
        best_idx: Optional[int] = None
        best_key = None
        for idx, req in enumerate(self.queue):
            decoded = req.access.decoded
            state = bank_state.get(decoded.bank)
            if state is None:
                bank = banks[decoded.bank]
                state = (bank.earliest_issue(now) <= now, bank.open_row)
                bank_state[decoded.bank] = state
            if not state[0]:
                continue
            is_hit = 0 if state[1] == decoded.row else 1
            key = self.key(req, is_hit, idx)
            if best_key is None or key < best_key:
                best_key, best_idx = key, idx
        if best_idx is None:
            return None
        req = self.queue.pop(best_idx)
        bank_state.pop(req.access.decoded.bank, None)
        return req

    def horizon(self, now: int, banks: List["Bank"]) -> int:
        return min(
            banks[req.access.decoded.bank].earliest_issue(now)
            for req in self.queue
        )
