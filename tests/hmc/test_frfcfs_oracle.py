"""Oracle test for the bucketed FR-FCFS scheduler.

:class:`ReferenceFRFCFS` is FR-FCFS written as the flat scan of one queue
that every other flat policy shares (:class:`FlatQueueScheduler`): the
ready request with the smallest ``(is_hit, arrived_ps, queue index)``
issues.  The production :class:`FRFCFSScheduler` buckets requests per bank,
skips not-ready banks and drops a bank's bucket once it empties; it must
pick exactly the same sequence.  The
committed-row tests in ``tests/exec/test_fastpath_identity.py`` also run
whole experiments with this reference swapped in.
"""

from __future__ import annotations

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.config import HMCConfig
from repro.hmc.dram import Bank
from repro.hmc.sched import FlatQueueScheduler, FRFCFSScheduler, QueuedRequest
from repro.mem import AccessType, DecodedAddress, MemoryAccess

NUM_BANKS = 4


class ReferenceFRFCFS(FlatQueueScheduler):
    """FR-FCFS as a flat queue scan: row hits first, then the oldest."""

    name = "frfcfs"

    def key(self, req: QueuedRequest, is_hit: int, idx: int):
        return (is_hit, req.arrived_ps, idx)


def _request(bank: int, row: int, arrived_ps: int, seq: int) -> QueuedRequest:
    access = MemoryAccess(
        paddr=0,
        size=64,
        type=AccessType.READ,
        decoded=DecodedAddress(cluster=0, local_hmc=0, vault=0, bank=bank, row=row),
    )
    return QueuedRequest(access, lambda _access: None, arrived_ps, seq)


_admit = st.tuples(
    st.just("admit"),
    st.integers(0, NUM_BANKS - 1),  # bank
    st.integers(0, 2),  # row
    st.integers(0, 3),  # time since the previous arrival
)
_kick = st.tuples(
    st.just("kick"),
    # Per bank: ready_at relative to now, and the open row (None: closed).
    st.lists(
        st.tuples(st.integers(-3, 3), st.one_of(st.none(), st.integers(0, 2))),
        min_size=NUM_BANKS,
        max_size=NUM_BANKS,
    ),
    st.integers(0, 3),  # busy time a service adds to its bank
)


#: Appended to every drawn sequence: admit one request per bank, drain
#: (every bank ready, services add no busy time), then do it again.  The
#: first drain empties every bucket, so every example admits to a bank
#: whose bucket was dropped, whatever the drawn part did.
_DRAIN = ("kick", [(0, None)] * NUM_BANKS, 0)
_REFILL_AND_DRAIN = [("admit", bank, 0, 1) for bank in range(NUM_BANKS)] + [_DRAIN]
_TAIL = _REFILL_AND_DRAIN * 2


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_admit, _kick), max_size=60))
@example(
    # Bank 0 drains at the first kick, then bank 0 is admitted to again
    # while bank 1 still waits.
    [
        ("admit", 0, 1, 0),
        ("admit", 1, 2, 1),
        ("kick", [(0, None), (1, None), (0, None), (0, None)], 2),
        ("admit", 0, 2, 1),
        ("kick", [(0, 1), (0, None), (0, None), (0, None)], 0),
    ]
)
def test_bucketed_picks_the_reference_sequence(ops):
    cfg = HMCConfig()
    bucketed, reference = FRFCFSScheduler(cfg), ReferenceFRFCFS(cfg)
    banks = [Bank() for _ in range(NUM_BANKS)]
    queued = [0] * NUM_BANKS
    drained = set()  # banks whose bucket emptied since their last admit
    now = seq = 0
    for op in ops + _TAIL:
        if op[0] == "admit":
            _, bank, row, gap = op
            now += gap
            req = _request(bank, row, now, seq)
            seq += 1
            if bank in drained:
                event("admit to a bank whose bucket emptied")
                drained.discard(bank)
            bucketed.admit(req)
            reference.admit(req)
            queued[bank] += 1
            continue
        _, states, busy_ps = op
        for bank, (ready_offset, open_row) in zip(banks, states):
            bank.ready_at = max(0, now + ready_offset)
            bank.open_row = open_row
        # One vault kick: issue until nothing is ready, then compare the
        # re-kick horizon (the vault only asks for it in that state).
        bucketed_state, reference_state = {}, {}
        while len(bucketed):
            got = bucketed.pick(bucketed_state, now, banks)
            want = reference.pick(reference_state, now, banks)
            assert got is want
            if got is None:
                assert bucketed.horizon(now, banks) == reference.horizon(now, banks)
                break
            decoded = got.access.decoded
            banks[decoded.bank].open_row = decoded.row
            banks[decoded.bank].ready_at = now + busy_ps
            queued[decoded.bank] -= 1
            if not queued[decoded.bank]:
                drained.add(decoded.bank)
        assert len(bucketed) == len(reference)
    assert len(bucketed) == 0 and len(reference.queue) == 0
    # Only banks with queued requests keep a bucket.
    assert not bucketed._buckets
