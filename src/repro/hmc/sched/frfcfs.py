"""FR-FCFS: first-ready, row hits preferred, ties broken by age.

The default policy (Table I: FR-FCFS [48]).  Requests are bucketed per
bank, each bucket in admission order, and ``pick`` consults the vault's
per-kick bank-state snapshot, so not-ready banks are skipped without
touching their requests.  A bucket is dropped once it empties, so
``pick`` and ``horizon`` visit only banks with queued requests (a
touched vault usually has one).  The schedule equals a flat scan of one
queue by the key ``(is_hit, arrived_ps, queue index)`` — the oracle
tests in ``tests/hmc/test_frfcfs_oracle.py`` hold that bar against such
a scan.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .base import BankState, QueuedRequest, VaultScheduler

if TYPE_CHECKING:  # pragma: no cover
    from ...config import HMCConfig
    from ..dram import Bank


class FRFCFSScheduler(VaultScheduler):
    """First-ready FCFS over the vault's banks (bucketed scan)."""

    name = "frfcfs"

    def __init__(self, cfg: "HMCConfig") -> None:
        super().__init__(cfg)
        #: Requests bucketed per bank, each bucket in admission order;
        #: only banks with queued requests have a bucket.
        self._buckets: Dict[int, List[QueuedRequest]] = {}

    def __len__(self) -> int:
        return sum(map(len, self._buckets.values()))

    def admit(self, req: QueuedRequest) -> None:
        bank = req.access.decoded.bank
        bucket = self._buckets.get(bank)
        if bucket is None:
            bucket = self._buckets[bank] = []
        bucket.append(req)

    def pick(
        self, bank_state: BankState, now: int, banks: List["Bank"]
    ) -> Optional[QueuedRequest]:
        """The FR-FCFS-preferred ready request.

        Within one bank the flat scan's best candidate is the oldest row
        hit, or the oldest request if none hits (the key is hits-first,
        then admission order, and each bucket preserves admission order).
        The cross-bank winner is picked by the same ``(is_hit, arrived_ps,
        seq)`` key; ``seq`` orders identically to the flat queue index.
        Not-ready banks are skipped without touching their requests, so a
        drain is linear in queue length instead of quadratic.  The key is
        total (``seq`` is unique), so the order in which buckets are
        visited cannot change the pick.
        """
        best_req: Optional[QueuedRequest] = None
        best_key: Optional[Tuple[int, int, int]] = None
        best_bank = -1
        for bank_id, bucket in self._buckets.items():
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
        bucket = self._buckets[best_bank]
        if len(bucket) == 1:
            del self._buckets[best_bank]
        else:
            bucket.remove(best_req)
        bank_state.pop(best_bank, None)
        return best_req

    def horizon(self, now: int, banks: List["Bank"]) -> int:
        return min(banks[bank_id].ready_at for bank_id in self._buckets)
