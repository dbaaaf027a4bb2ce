"""Tests for trace recording and trace-driven replay."""

import dataclasses

import pytest

from repro.errors import SimulationError
from repro.system.builder import MultiGPUSystem
from repro.system.configs import TABLE_III
from repro.trace import TraceEvent, TraceRecorder, load_trace, replay_trace
from repro.workloads import get_workload
from tests.conftest import tiny_system_config


def record_run(arch="GMN", workload="KMN", scale=0.1):
    """Run a workload with a recorder attached; return (recorder, system)."""
    system = MultiGPUSystem(TABLE_III[arch], tiny_system_config())
    system.install_page_table()
    recorder = TraceRecorder()
    recorder.attach(system)
    wl = get_workload(workload, scale)
    done = []
    system.vgpu.launch_sequence(wl.kernels, on_done=lambda: done.append(True))
    system.sim.run()
    assert done
    return recorder, system


class TestRecording:
    def test_records_all_memory_requests(self):
        recorder, system = record_run()
        expected = sum(g.stats.memory_requests for g in system.gpus)
        assert recorder.num_events == expected
        assert recorder.num_events > 0

    def test_latencies_filled_on_completion(self):
        recorder, _ = record_run()
        completed = recorder.completed_events()
        assert len(completed) == recorder.num_events
        assert all(e.latency_ps > 0 for e in completed)

    def test_events_carry_requesters_and_types(self):
        recorder, _ = record_run()
        requesters = {e.requester for e in recorder.events}
        assert requesters <= {"gpu0", "gpu1", "gpu2", "gpu3"}
        types = {e.type for e in recorder.events}
        assert "read" in types
        assert "write" in types

    def test_timestamps_monotone_nondecreasing_per_requester(self):
        recorder, _ = record_run()
        last = {}
        for e in recorder.events:
            assert e.t_ps >= last.get(e.requester, 0)
            last[e.requester] = e.t_ps


class TestSerialization:
    def test_save_load_roundtrip(self, tmp_path):
        recorder, _ = record_run()
        path = str(tmp_path / "trace.jsonl")
        recorder.save(path)
        loaded = load_trace(path)
        assert loaded == recorder.events

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"t_ps": 1, "requester": "gpu0", "paddr": 0, "size": 128, '
            '"type": "read", "latency_ps": 5}\n\n'
        )
        events = load_trace(str(path))
        assert len(events) == 1
        assert events[0].access_type.value == "read"


class TestReplay:
    def test_replay_on_same_architecture(self):
        recorder, _ = record_run()
        result = replay_trace(recorder.events, TABLE_III["GMN"], tiny_system_config())
        assert result.completed == result.requests == recorder.num_events
        assert result.avg_latency_ps > 0

    def test_replay_compares_architectures(self):
        """The trace replayed on UMN sees lower latency than on PCIe."""
        recorder, _ = record_run(arch="GMN")
        pcie = replay_trace(recorder.events, TABLE_III["PCIe"], tiny_system_config())
        umn = replay_trace(recorder.events, TABLE_III["UMN"], tiny_system_config())
        assert umn.avg_latency_ps < pcie.avg_latency_ps

    def test_time_scale_stretches_makespan(self):
        recorder, _ = record_run()
        fast = replay_trace(recorder.events, TABLE_III["UMN"], tiny_system_config())
        slow = replay_trace(
            recorder.events, TABLE_III["UMN"], tiny_system_config(), time_scale=4.0
        )
        assert slow.makespan_ps > fast.makespan_ps

    def test_empty_trace(self):
        result = replay_trace([], TABLE_III["UMN"], tiny_system_config())
        assert result.requests == 0
        assert result.avg_latency_ps == 0.0

    def test_unknown_requester_rejected(self):
        bad = [TraceEvent(t_ps=0, requester="tpu0", paddr=0, size=128, type="read")]
        with pytest.raises(SimulationError):
            replay_trace(bad, TABLE_III["UMN"], tiny_system_config())

    def test_watchdog_trips_replay(self):
        recorder, _ = record_run()
        cfg = dataclasses.replace(tiny_system_config(), watchdog_max_events=50)
        with pytest.raises(SimulationError, match="watchdog: trace replay on UMN"):
            replay_trace(recorder.events, TABLE_III["UMN"], cfg)

    def test_lost_request_raises(self, monkeypatch):
        recorder, _ = record_run()
        forward = MultiGPUSystem._gpu_request
        seen = []

        def lossy(self, gpu_id, access, on_done):
            seen.append(access)
            if len(seen) > 1:  # the first request is never served
                forward(self, gpu_id, access, on_done)

        monkeypatch.setattr(MultiGPUSystem, "_gpu_request", lossy)
        total = recorder.num_events
        with pytest.raises(SimulationError, match=f"{total - 1} of {total} requests"):
            replay_trace(recorder.events, TABLE_III["UMN"], tiny_system_config())
