"""FR-FCFS: first-ready, row hits preferred, ties broken by age.

The default policy (Table I: FR-FCFS [48]) in both of its historically
equivalent implementations, selected by ``HMCConfig.frfcfs_fast_scan``:

- the flat reference scan over one queue (``O(queue)`` per issue), and
- the bucketed fast path (per-bank queues + the per-kick bank-state
  snapshot), which skips not-ready banks without touching their requests.

Both produce identical schedules; the identity tests in ``tests/exec``
hold that bar against committed reference rows.  The two code paths are
verbatim moves of the original ``Vault._try_issue`` /
``Vault._try_issue_fast`` loops.  The variant is bound once at
construction (``admit``/``pick``/``horizon`` become the chosen path's
methods), so the per-issue calls do not branch on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .base import BankState, QueuedRequest, VaultScheduler

if TYPE_CHECKING:  # pragma: no cover
    from ...config import HMCConfig
    from ..dram import Bank


class FRFCFSScheduler(VaultScheduler):
    """First-ready FCFS over the vault's banks (flat or bucketed scan)."""

    name = "frfcfs"

    def __init__(self, cfg: "HMCConfig") -> None:
        super().__init__(cfg)
        self.queue: List[QueuedRequest] = []
        #: Fast path: requests bucketed per bank, each bucket in admission
        #: order.
        self._buckets: Dict[int, List[QueuedRequest]] = {}
        #: Admitted entries (across buckets on the fast path).
        self._queue_len = 0
        if cfg.frfcfs_fast_scan:
            self.admit = self._admit_fast
            self.pick = self._pick_fast
            self.horizon = self._horizon_fast
        else:
            self.admit = self._admit_flat
            self.pick = self._pick_flat
            self.horizon = self._horizon_flat

    def __len__(self) -> int:
        return self._queue_len

    def _admit_flat(self, req: QueuedRequest) -> None:
        self.queue.append(req)
        self._queue_len += 1

    def _admit_fast(self, req: QueuedRequest) -> None:
        bank = req.access.decoded.bank
        bucket = self._buckets.get(bank)
        if bucket is None:
            bucket = self._buckets[bank] = []
        bucket.append(req)
        self._queue_len += 1

    # ------------------------------------------------------------------
    def _pick_flat(
        self, bank_state: BankState, now: int, banks: List["Bank"]
    ) -> Optional[QueuedRequest]:
        """The FR-FCFS-preferred ready request, by flat queue scan."""
        best_idx: Optional[int] = None
        best_key: Optional[Tuple[int, int, int]] = None
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
            key = (is_hit, req.arrived_ps, idx)
            if best_key is None or key < best_key:
                best_key, best_idx = key, idx
        if best_idx is None:
            return None
        req = self.queue.pop(best_idx)
        self._queue_len -= 1
        bank_state.pop(req.access.decoded.bank, None)
        return req

    def _pick_fast(
        self, bank_state: BankState, now: int, banks: List["Bank"]
    ) -> Optional[QueuedRequest]:
        """Bucketed FR-FCFS issue: equivalent to :meth:`_pick_flat`.

        Within one bank the flat scan's best candidate is the oldest row
        hit, or the oldest request if none hits (the key is hits-first,
        then admission order, and each bucket preserves admission order).
        The cross-bank winner is picked by the same ``(is_hit, arrived_ps,
        seq)`` key; ``seq`` orders identically to the flat queue index.
        Not-ready banks are skipped without touching their requests, so a
        drain is linear in queue length instead of quadratic.
        """
        best_req: Optional[QueuedRequest] = None
        best_key: Optional[Tuple[int, int, int]] = None
        best_bank = -1
        for bank_id, bucket in self._buckets.items():
            if not bucket:
                continue
            state = bank_state.get(bank_id)
            if state is None:
                bank = banks[bank_id]
                state = (bank.ready_at <= now, bank.open_row)
                bank_state[bank_id] = state
            if not state[0]:
                continue
            open_row = state[1]
            cand = None
            for req in bucket:
                if req.access.decoded.row == open_row:
                    cand = req
                    is_hit = 0
                    break
            if cand is None:
                cand = bucket[0]
                is_hit = 1
            key = (is_hit, cand.arrived_ps, cand.seq)
            if best_key is None or key < best_key:
                best_key, best_req, best_bank = key, cand, bank_id
        if best_req is None:
            return None
        self._buckets[best_bank].remove(best_req)
        self._queue_len -= 1
        bank_state.pop(best_bank, None)
        return best_req

    # ------------------------------------------------------------------
    def _horizon_flat(self, now: int, banks: List["Bank"]) -> int:
        return min(
            banks[req.access.decoded.bank].earliest_issue(now)
            for req in self.queue
        )

    def _horizon_fast(self, now: int, banks: List["Bank"]) -> int:
        return min(
            banks[bank_id].ready_at
            for bank_id, bucket in self._buckets.items()
            if bucket
        )
