"""Tests for the GPU chip: memory pipeline, kernel execution, completion."""

import pytest

from repro.core.cta_scheduler import StaticChunkSchedule
from repro.core.kernel import Access, Kernel, Phase
from repro.errors import SimulationError
from repro.gpu.gpu import GPU
from repro.mem import AccessType
from repro.sim.engine import Simulator
from tests.conftest import tiny_gpu_config


class RecordingMemory:
    """Fake memory port: records requests, answers after a fixed delay."""

    def __init__(self, sim, delay_ps=50_000):
        self.sim = sim
        self.delay_ps = delay_ps
        self.requests = []

    def port(self, access, on_done):
        self.requests.append(access)
        self.sim.after(self.delay_ps, on_done)


def make_gpu(num_sms=2):
    sim = Simulator()
    gpu = GPU(sim, 0, tiny_gpu_config(num_sms))
    mem = RecordingMemory(sim)
    gpu.memory_port = mem.port
    return sim, gpu, mem


def run_kernel(sim, gpu, program, ctas=1):
    kernel = Kernel("k", (ctas,), program)
    schedule = StaticChunkSchedule(ctas, 1)
    done = []
    gpu.launch(kernel, schedule, lambda: done.append(sim.now))
    sim.run()
    assert len(done) == 1, "kernel did not complete"
    return done[0]


def read(addr):
    return Access(addr, 128, AccessType.READ)


def write(addr):
    return Access(addr, 128, AccessType.WRITE)


def atomic(addr):
    return Access(addr, 32, AccessType.ATOMIC)


class TestKernelExecution:
    def test_single_cta_completes(self):
        sim, gpu, mem = make_gpu()
        finish = run_kernel(sim, gpu, lambda c: [Phase(1000, (read(0),))])
        assert finish > 0
        assert len(mem.requests) == 1

    def test_zero_cta_gpu_completes_immediately(self):
        sim, gpu, mem = make_gpu()
        kernel = Kernel("k", (4,), lambda c: [Phase(0)])
        schedule = StaticChunkSchedule(4, 8)  # gpu 0 of 8 gets 1 CTA... use 5
        done = []
        # GPU id 0 with an 8-way split of 4 CTAs: GPUs 4..7 get nothing.
        gpu.gpu_id = 5
        gpu.launch(kernel, schedule, lambda: done.append(sim.now))
        sim.run()
        assert done == [0]

    def test_all_ctas_execute(self):
        sim, gpu, mem = make_gpu(num_sms=2)
        seen = []

        def program(cta):
            seen.append(cta)
            return [Phase(100, (read(cta * 128),))]

        run_kernel(sim, gpu, program, ctas=12)
        assert sorted(seen) == list(range(12))
        assert sum(sm.stats.ctas_executed for sm in gpu.sms) == 12

    def test_compute_serializes_within_sm(self):
        sim, gpu, _ = make_gpu(num_sms=1)
        long_compute = 1_000_000
        finish = run_kernel(
            sim, gpu, lambda c: [Phase(long_compute)], ctas=4
        )
        assert finish >= 4 * long_compute

    def test_ctas_on_different_sms_overlap(self):
        sim1, gpu1, _ = make_gpu(num_sms=1)
        t1 = run_kernel(sim1, gpu1, lambda c: [Phase(1_000_000)], ctas=2)
        sim2, gpu2, _ = make_gpu(num_sms=2)
        t2 = run_kernel(sim2, gpu2, lambda c: [Phase(1_000_000)], ctas=2)
        assert t2 < t1

    def test_double_launch_rejected(self):
        sim, gpu, _ = make_gpu()
        kernel = Kernel("k", (1,), lambda c: [Phase(10)])
        gpu.launch(kernel, StaticChunkSchedule(1, 1), lambda: None)
        with pytest.raises(SimulationError):
            gpu.launch(kernel, StaticChunkSchedule(1, 1), lambda: None)

    def test_unwired_port_rejected(self):
        sim = Simulator()
        gpu = GPU(sim, 0, tiny_gpu_config())
        with pytest.raises(SimulationError):
            gpu.launch(
                Kernel("k", (1,), lambda c: [Phase(0)]),
                StaticChunkSchedule(1, 1),
                lambda: None,
            )


class TestReadPath:
    def test_read_miss_goes_to_memory_and_fills(self):
        sim, gpu, mem = make_gpu()
        run_kernel(sim, gpu, lambda c: [Phase(0, (read(0), read(0)))])
        # Second read of the same line merges or hits; only 1 memory request.
        assert len(mem.requests) == 1
        assert gpu.sms[0].l1.contains(0)
        assert gpu.l2.contains(0)

    def test_l1_hit_faster_than_miss(self):
        sim1, gpu1, _ = make_gpu()
        t_miss = run_kernel(sim1, gpu1, lambda c: [Phase(0, (read(0),))])
        sim2, gpu2, _ = make_gpu()
        t_two = run_kernel(
            sim2, gpu2, lambda c: [Phase(0, (read(0),)), Phase(0, (read(0),))]
        )
        assert t_two - t_miss < t_miss  # second phase was an L1 hit

    def test_mshr_merge_across_sms(self):
        sim, gpu, mem = make_gpu(num_sms=2)
        # Two CTAs on different SMs read the same line concurrently.
        run_kernel(sim, gpu, lambda c: [Phase(0, (read(0),))], ctas=2)
        assert len(mem.requests) == 1
        assert gpu.stats.merged_misses == 1
        # The merge counts as a delayed L2 hit.
        assert gpu.l2.stats.hits == 1

    def test_merged_waiters_fill_their_own_l1(self):
        sim, gpu, mem = make_gpu(num_sms=2)
        run_kernel(sim, gpu, lambda c: [Phase(0, (read(0),))], ctas=2)
        assert gpu.sms[0].l1.contains(0)
        assert gpu.sms[1].l1.contains(0)


class TestWritePath:
    def test_write_always_reaches_memory(self):
        sim, gpu, mem = make_gpu()
        run_kernel(
            sim, gpu, lambda c: [Phase(0, (read(0),)), Phase(0, (write(0),))]
        )
        kinds = [r.type for r in mem.requests]
        assert kinds.count(AccessType.WRITE) == 1

    def test_write_miss_does_not_allocate(self):
        sim, gpu, mem = make_gpu()
        run_kernel(sim, gpu, lambda c: [Phase(0, (write(0),))])
        assert not gpu.sms[0].l1.contains(0)
        assert not gpu.l2.contains(0)

    def test_writes_do_not_block_phase_but_block_kernel(self):
        sim, gpu, mem = make_gpu()
        phases_done = []

        def program(c):
            return [Phase(100, (write(0),)), Phase(100)]

        finish = run_kernel(sim, gpu, program)
        # Kernel completion waited for the write ack (50 us memory delay).
        assert finish >= mem.delay_ps

    def test_oversized_access_rejected(self):
        sim, gpu, _ = make_gpu()
        kernel = Kernel(
            "k", (1,), lambda c: [Phase(0, (Access(0, 256, AccessType.READ),))]
        )
        gpu.launch(kernel, StaticChunkSchedule(1, 1), lambda: None)
        with pytest.raises(SimulationError):
            sim.run()

    def test_oversized_access_rejected_at_issue(self):
        sim, gpu, mem = make_gpu()
        oversize = Access(0, 256, AccessType.READ)
        message = (
            "access of 256B exceeds the 128B line; workloads must emit "
            "line-sized coalesced accesses"
        )
        with pytest.raises(SimulationError, match=f"^{message}$"):
            gpu.access_memory(gpu.sms[0], oversize, None, None)
        assert mem.requests == []
        assert gpu.stats.reads == 0


class TestAtomicPath:
    def test_atomic_evicts_and_goes_to_memory(self):
        sim, gpu, mem = make_gpu()

        def program(c):
            return [Phase(0, (read(0),)), Phase(0, (atomic(0),))]

        run_kernel(sim, gpu, program)
        assert not gpu.sms[0].l1.contains(0)
        assert not gpu.l2.contains(0)
        assert [r.type for r in mem.requests].count(AccessType.ATOMIC) == 1

    def test_atomic_blocks_phase(self):
        sim, gpu, mem = make_gpu()
        finish = run_kernel(sim, gpu, lambda c: [Phase(0, (atomic(0),))])
        assert finish >= mem.delay_ps


class TestMSHRThrottling:
    def test_outstanding_bounded_by_mshrs(self):
        sim, gpu, _ = make_gpu(num_sms=1)
        cfg = gpu.cfg
        peak = []

        class SlowMemory:
            def __init__(self):
                self.outstanding = 0

            def port(self, access, on_done):
                self.outstanding += 1
                peak.append(self.outstanding)

                def finish():
                    self.outstanding -= 1
                    on_done()

                sim.after(100_000, finish)

        gpu.memory_port = SlowMemory().port
        many = tuple(read(i * 128) for i in range(64))
        run_kernel(sim, gpu, lambda c: [Phase(0, many)])
        assert max(peak) <= cfg.mshrs_per_sm


class TestStats:
    def test_hit_rates(self):
        sim, gpu, _ = make_gpu()
        run_kernel(
            sim, gpu, lambda c: [Phase(0, (read(0),)), Phase(0, (read(0),))]
        )
        assert gpu.l1_hit_rate() == pytest.approx(0.5)

    def test_memory_request_count(self):
        sim, gpu, mem = make_gpu()
        run_kernel(sim, gpu, lambda c: [Phase(0, (read(0), read(128), write(256)))])
        assert gpu.stats.memory_requests == len(mem.requests) == 3
