"""Tests for kernel/grid/CTA abstractions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernel import (
    Access,
    Kernel,
    Phase,
    flatten_index,
    unflatten_index,
)
from repro.errors import ConfigError
from repro.mem import AccessType


def simple_program(cta):
    return [Phase(compute_ps=100, accesses=(Access(cta * 128, 128, AccessType.READ),))]


class TestIndexFlattening:
    def test_x_fastest(self):
        assert flatten_index((1, 0), (4, 4)) == 1
        assert flatten_index((0, 1), (4, 4)) == 4

    def test_3d(self):
        assert flatten_index((1, 2, 3), (4, 5, 6)) == 1 + 2 * 4 + 3 * 20

    def test_roundtrip_examples(self):
        assert unflatten_index(21, (4, 6)) == (1, 5)

    def test_rank_mismatch(self):
        with pytest.raises(ConfigError):
            flatten_index((1, 2), (4,))

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            flatten_index((4, 0), (4, 4))
        with pytest.raises(ConfigError):
            unflatten_index(16, (4, 4))

    @settings(max_examples=100, deadline=None)
    @given(
        dim=st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8)),
        data=st.data(),
    )
    def test_flatten_unflatten_roundtrip(self, dim, data):
        idx = tuple(data.draw(st.integers(0, d - 1)) for d in dim)
        flat = flatten_index(idx, dim)
        assert unflatten_index(flat, dim) == idx


class TestKernel:
    def test_num_ctas(self):
        k = Kernel("k", (4, 8), simple_program)
        assert k.num_ctas == 32

    def test_program_lookup(self):
        k = Kernel("k", (4,), simple_program)
        phases = k.program(2)
        assert phases[0].accesses[0].vaddr == 256

    def test_program_bounds_checked(self):
        k = Kernel("k", (4,), simple_program)
        with pytest.raises(ConfigError):
            k.program(4)

    def test_kept_programs(self):
        k = Kernel("k", (4,), simple_program)
        assert k.program(2) is not k.program(2)
        k.keep_programs()
        first = k.program(2)
        assert k.program(2) is first
        assert first[0].accesses[0].vaddr == 256
        k.keep_programs()  # already keeping: the kept phases stay
        assert k.program(2) is first
        with pytest.raises(ConfigError):
            k.program(4)

    def test_invalid_grid(self):
        with pytest.raises(ConfigError):
            Kernel("k", (0,), simple_program)
        with pytest.raises(ConfigError):
            Kernel("k", (), simple_program)


class TestPhase:
    def test_negative_compute_rejected(self):
        with pytest.raises(ConfigError):
            Phase(compute_ps=-1)

    def test_empty_phase_allowed(self):
        assert Phase(compute_ps=0).accesses == ()

    def test_issue_order_split_once(self):
        read = Access(0, 128, AccessType.READ)
        write = Access(128, 128, AccessType.WRITE)
        atomic = Access(256, 32, AccessType.ATOMIC)
        late_write = Access(384, 128, AccessType.WRITE)
        phase = Phase(0, (read, write, atomic, late_write))
        # Writes first, then the blocking accesses, each in program order.
        assert phase.writes == (write, late_write)
        assert phase.blocking == (read, atomic)
        # The split is derived state: it neither shows nor compares.
        assert phase == Phase(0, (read, write, atomic, late_write))
        assert "blocking" not in repr(phase)
