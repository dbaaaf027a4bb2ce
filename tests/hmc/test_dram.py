"""Tests for DRAM bank timing (Table I parameters)."""


from repro.config import DRAMTiming, HMCConfig
from repro.hmc.dram import Bank
from repro.hmc.vault import Vault
from repro.mem import AccessType, DecodedAddress, MemoryAccess
from repro.sim.engine import Simulator

T = DRAMTiming()


class TestLatency:
    def test_hit_latency_is_tcl(self):
        bank = Bank()
        bank.access(1, AccessType.READ, 0, T)
        issue = bank.ready_at
        done = bank.access(1, AccessType.READ, issue, T)
        assert done - issue == T.ps(T.tCL)

    def test_empty_latency_is_trcd_plus_tcl(self):
        bank = Bank()
        done = bank.access(1, AccessType.READ, 0, T)
        assert done == T.ps(T.tRCD + T.tCL)

    def test_conflict_latency_adds_precharge(self):
        bank = Bank()
        bank.access(1, AccessType.READ, 0, T)
        start = bank.ready_at
        done = bank.access(2, AccessType.READ, start, T)
        assert done - start == T.ps(T.tRP + T.tRCD + T.tCL)

    def test_write_recovery_penalizes_conflict_after_write(self):
        bank_r = Bank()
        bank_r.access(1, AccessType.READ, 0, T)
        t_r = bank_r.ready_at
        read_conflict = bank_r.access(2, AccessType.READ, t_r, T) - t_r

        bank_w = Bank()
        bank_w.access(1, AccessType.WRITE, 0, T)
        t_w = bank_w.ready_at
        write_conflict = bank_w.access(2, AccessType.READ, t_w, T) - t_w
        assert write_conflict - read_conflict == T.ps(T.tWR)

    def test_latency_ordering(self):
        """hit < empty < conflict — the fundamental DRAM ordering."""
        hit = T.ps(T.tCL)
        empty = T.ps(T.tRCD + T.tCL)
        conflict = T.ps(T.tRP + T.tRCD + T.tCL)
        assert hit < empty < conflict


class TestOccupancy:
    def test_hit_frees_after_tccd(self):
        bank = Bank()
        bank.access(1, AccessType.READ, 0, T)
        t0 = bank.ready_at
        bank.access(1, AccessType.READ, t0, T)
        assert bank.ready_at == t0 + T.ps(T.tCCD)

    def test_activate_holds_bank_for_tras(self):
        bank = Bank()
        bank.access(1, AccessType.READ, 0, T)
        assert bank.ready_at == T.ps(T.tRAS)

    def test_issue_waits_for_ready(self):
        bank = Bank()
        bank.access(1, AccessType.READ, 0, T)
        early_done = bank.access(1, AccessType.READ, 0, T)
        # Issued at ready_at (not 0), so completion is later than a free bank.
        assert early_done > T.ps(T.tCL)

    def test_stats(self):
        """empty -> hit -> conflict, as the returned completion times, the
        open row, and a vault's row-hit count see it."""
        bank = Bank()
        assert bank.open_row is None
        assert bank.access(1, AccessType.READ, 0, T) == T.empty_ps
        assert bank.open_row == 1
        start = bank.ready_at
        assert bank.access(1, AccessType.READ, start, T) - start == T.hit_ps
        assert bank.open_row == 1
        start = bank.ready_at
        assert bank.access(2, AccessType.READ, start, T) - start == T.conflict_ps
        assert bank.open_row == 2

        sim = Simulator()
        vault = Vault(sim, HMCConfig())
        for row in (1, 1, 2):
            access = MemoryAccess(
                paddr=0,
                size=128,
                type=AccessType.READ,
                decoded=DecodedAddress(0, 0, 0, 0, row),
            )
            vault.enqueue(access, lambda _access: None)
        sim.run()
        assert vault.stats.served == 3
        assert vault.stats.row_hits == 1
        assert vault.banks[0].open_row == 2


class TestTimingConfig:
    def test_ps_conversion(self):
        assert T.ps(4) == 4 * 1250
