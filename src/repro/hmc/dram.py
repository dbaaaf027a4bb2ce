"""DRAM bank timing model for the HMC vaults.

Open-row policy with the Table I timing parameters.  The model is
command-level rather than cycle-accurate: each access is classified as a row
hit / row empty / row conflict and charged the corresponding latency, while
per-bank ``ready_at`` horizons and the shared vault data bus provide
bank-level parallelism and serialization (DESIGN.md section 2).
"""

from __future__ import annotations

from typing import Optional

from ..config import DRAMTiming
from ..mem import AccessType


_WRITE = AccessType.WRITE


class Bank:
    """One DRAM bank: an open row and an earliest-next-command horizon."""

    __slots__ = ("open_row", "ready_at", "_last_was_write")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.ready_at: int = 0
        self._last_was_write = False

    def access(
        self, row: int, access_type: AccessType, now_ps: int, timing: DRAMTiming
    ) -> int:
        """Issue an access; returns the time the data phase completes.

        Updates the bank's open row and ``ready_at`` horizon.
        """
        open_row = self.open_row
        ready = self.ready_at
        issue = now_ps if now_ps > ready else ready
        if open_row == row:
            # Row hit: a column access, pipeline frees after tCCD.
            data_done = issue + timing.hit_ps
            self.ready_at = issue + timing.ccd_ps
        else:
            if open_row is None:
                latency = timing.empty_ps
            else:
                latency = (
                    timing.conflict_wr_ps
                    if self._last_was_write
                    else timing.conflict_ps
                )
            data_done = issue + latency
            # An activate holds the bank for tRAS before it may be
            # precharged again (or until the precharge+activate completes).
            occupancy = latency - timing.cl_ps
            if occupancy < timing.ras_ps:
                occupancy = timing.ras_ps
            self.ready_at = issue + occupancy
            self.open_row = row
        self._last_was_write = access_type is _WRITE
        return data_done

    def earliest_issue(self, now_ps: int) -> int:
        return max(now_ps, self.ready_at)
