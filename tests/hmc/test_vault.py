"""Tests for the vault controller: FR-FCFS, queue bounds, the data bus."""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import HMCConfig
from repro.errors import SimulationError
from repro.hmc.sched import SCHEDULERS
from repro.hmc.vault import Vault
from repro.mem import AccessType, DecodedAddress, MemoryAccess
from repro.sim.engine import Simulator


def make_access(bank=0, row=0, kind=AccessType.READ, size=128, requester=""):
    return MemoryAccess(
        paddr=0,
        size=size,
        type=kind,
        requester=requester,
        decoded=DecodedAddress(cluster=0, local_hmc=0, vault=0, bank=bank, row=row),
    )


def run_vault(accesses):
    """Enqueue all accesses at t=0; return (vault, completions in order)."""
    sim = Simulator()
    vault = Vault(sim, HMCConfig())
    done = []
    for a in accesses:
        vault.enqueue(a, lambda acc: done.append((acc, sim.now)))
    sim.run()
    return vault, done


class TestBasicService:
    def test_single_read_completes(self):
        vault, done = run_vault([make_access()])
        assert len(done) == 1
        assert done[0][1] > 0
        assert vault.stats.served == 1

    def test_undecoded_access_rejected(self):
        sim = Simulator()
        vault = Vault(sim, HMCConfig())
        with pytest.raises(SimulationError):
            vault.enqueue(MemoryAccess(paddr=0, size=64, type=AccessType.READ), print)

    def test_all_requests_complete_under_load(self):
        accesses = [make_access(bank=i % 16, row=i % 3) for i in range(100)]
        vault, done = run_vault(accesses)
        assert len(done) == 100
        assert vault.occupancy == 0


class TestFRFCFS:
    def test_row_hit_preferred_over_older_conflict(self):
        # Open row 1, then queue a conflict (row 2) before a hit (row 1).
        opener = make_access(bank=0, row=1)
        conflict = make_access(bank=0, row=2)
        hit = make_access(bank=0, row=1)
        vault, done = run_vault([opener, conflict, hit])
        order = [acc.aid for acc, _ in done]
        assert order.index(hit.aid) < order.index(conflict.aid)

    def test_fcfs_among_equal_outcomes(self):
        first = make_access(bank=0, row=1)
        second = make_access(bank=1, row=1)
        third = make_access(bank=2, row=1)
        _, done = run_vault([first, second, third])
        assert [acc.aid for acc, _ in done] == [first.aid, second.aid, third.aid]

    def test_row_hit_rate_tracked(self):
        accesses = [make_access(bank=0, row=0) for _ in range(10)]
        vault, _ = run_vault(accesses)
        assert vault.row_hit_rate == pytest.approx(0.9)  # all but the opener


class TestBankParallelism:
    def test_different_banks_overlap(self):
        same_bank = [make_access(bank=0, row=r) for r in range(8)]
        _, done_same = run_vault(same_bank)
        finish_same = max(t for _, t in done_same)

        spread = [make_access(bank=b, row=0) for b in range(8)]
        _, done_spread = run_vault(spread)
        finish_spread = max(t for _, t in done_spread)
        assert finish_spread < finish_same

    def test_data_bus_serializes_transfers(self):
        # Two reads to different banks still share the vault data bus.
        cfg = HMCConfig()
        per_transfer = (128 // cfg.vault_bus_bytes_per_cycle) * cfg.timing.tCK_ps
        _, done = run_vault([make_access(bank=0), make_access(bank=1)])
        t0, t1 = sorted(t for _, t in done)
        assert t1 - t0 >= per_transfer

    def test_partial_bus_beat_costs_a_whole_cycle(self):
        # 24 B on the 16 B default bus is one and a half beats: the
        # transfer holds the bus for the ceiling, two whole cycles.
        cfg = HMCConfig()
        bus = cfg.vault_bus_bytes_per_cycle
        size = bus + bus // 2
        assert size % bus
        _, done = run_vault([make_access(size=size)])
        cycles = -(-size // bus)
        assert cycles == 2
        assert done[0][1] == cfg.timing.empty_ps + cycles * cfg.timing.tCK_ps
        _, one_beat = run_vault([make_access(size=bus)])
        assert done[0][1] - one_beat[0][1] == cfg.timing.tCK_ps


class TestQueueBounds:
    def test_overflow_buffers_excess_requests(self):
        sim = Simulator()
        vault = Vault(sim, HMCConfig(vault_queue_entries=4))
        done = []
        for i in range(20):
            vault.enqueue(make_access(bank=i % 4, row=i), lambda a: done.append(a))
        assert vault.stats.overflow_peak > 0
        sim.run()
        assert len(done) == 20

    def test_queue_wait_is_charged_to_the_requester_class(self):
        # The second request to bank 0 waits for the first one's activate.
        vault, _ = run_vault(
            [make_access(bank=0, row=r, requester="gpu0") for r in range(2)]
        )
        stats = vault.stats
        assert stats.total_queue_wait_ps > 0
        assert stats.class_queue_wait_ps["gpu"] == stats.total_queue_wait_ps
        assert stats.class_served == {"gpu": 2}

    def test_queue_wait_grows_with_contention(self):
        light_vault, _ = run_vault([make_access(bank=0, row=r) for r in range(2)])
        heavy_vault, _ = run_vault([make_access(bank=0, row=r) for r in range(20)])
        light = light_vault.stats.total_queue_wait_ps / 2
        heavy = heavy_vault.stats.total_queue_wait_ps / 20
        assert heavy > light


class TestBankStateSnapshot:
    """The per-kick bank-state snapshot must not change FR-FCFS decisions."""

    def test_same_kick_issues_use_fresh_state_after_issue(self):
        # Three hits to the same open row, queued together: after the first
        # issue, the bank's ready_at moves, so the remaining two must wait
        # for later kicks — completions are strictly ordered, not batched.
        opener = make_access(bank=0, row=5)
        hits = [make_access(bank=0, row=5) for _ in range(2)]
        vault, done = run_vault([opener] + hits)
        times = [t for _, t in done]
        assert times == sorted(times)
        assert len(set(times)) == 3
        assert vault.stats.row_hits == 2

    def test_open_row_snapshot_tracks_issued_conflict(self):
        # Bank opens row 1; queue holds [row 2, row 1, row 2].  FR-FCFS
        # serves the row-1 hit first, and after a row-2 conflict is issued
        # the second row-2 request must be seen as a hit (open row changed
        # mid-kick sequence), not re-classified from the stale snapshot.
        opener = make_access(bank=0, row=1)
        c1 = make_access(bank=0, row=2)
        h1 = make_access(bank=0, row=1)
        c2 = make_access(bank=0, row=2)
        vault, done = run_vault([opener, c1, h1, c2])
        order = [acc.aid for acc, _ in done]
        assert order == [opener.aid, h1.aid, c1.aid, c2.aid]
        # opener (empty) + h1 (hit) + c1 (conflict) + c2 (hit on row 2).
        assert vault.stats.row_hits == 2

    def test_mixed_bank_storm_deterministic(self):
        # A deterministic pseudo-random mix must complete identically on
        # repeated runs (the snapshot introduces no ordering dependence on
        # dict iteration or bank visit order).
        def storm():
            accesses = [
                make_access(bank=(i * 7) % 16, row=(i * 3) % 5) for i in range(60)
            ]
            _, done = run_vault(accesses)
            return [(acc.aid - accesses[0].aid, t) for acc, t in done]

        assert storm() == storm()


class TestAtomics:
    def test_atomic_pays_alu_latency(self):
        from repro.hmc.vault import ATOMIC_ALU_PS

        _, done_read = run_vault([make_access(kind=AccessType.READ, size=32)])
        _, done_atomic = run_vault([make_access(kind=AccessType.ATOMIC, size=32)])
        assert done_atomic[0][1] - done_read[0][1] == ATOMIC_ALU_PS

    def test_atomic_counted(self):
        vault, _ = run_vault([make_access(kind=AccessType.ATOMIC, size=32)])
        assert vault.stats.atomics == 1


_arrivals = st.lists(
    st.tuples(
        st.integers(0, 3),  # bank
        st.integers(0, 2),  # row
        st.sampled_from(list(AccessType)),
        st.integers(0, 4_000),  # arrival time, ps
    ),
    min_size=1,
    max_size=40,
)


@pytest.mark.parametrize("policy", sorted(SCHEDULERS))
@settings(max_examples=40, deadline=None)
@given(arrivals=_arrivals)
def test_vault_count_tracks_the_policy_queue(policy, arrivals):
    """The vault counts its admitted requests itself; with a 2-entry queue
    (so the overflow buffer is used) the count equals ``len(sched)`` after
    every enqueue and every kick, and every request completes once."""
    sim = Simulator()
    vault = Vault(sim, HMCConfig(scheduler=policy, vault_queue_entries=2))

    def check() -> None:
        assert vault._admitted == len(vault.sched)
        assert vault._admitted <= 2

    kick = vault._kick

    def checked_kick() -> None:
        kick()
        check()

    vault._kick = checked_kick  # the vault schedules ``self._kick``
    done = []

    def arrive(access) -> None:
        vault.enqueue(access, lambda acc: done.append(acc.aid))
        check()

    accesses = []
    for bank, row, kind, at_ps in arrivals:
        access = make_access(bank=bank, row=row, kind=kind, size=64)
        accesses.append(access)
        sim.at(at_ps, partial(arrive, access))
    sim.run()
    assert sorted(done) == sorted(a.aid for a in accesses)
    assert vault.occupancy == 0 and len(vault.sched) == 0
