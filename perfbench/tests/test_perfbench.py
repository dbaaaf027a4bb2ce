"""Tests for the benchmark's own machinery (not part of the tier-1 suite):

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import benchlib  # noqa: E402
import ledger  # noqa: E402
import serve_mixed  # noqa: E402
import workloads  # noqa: E402
from benchlib import MIN_TAIL, digest, percentile, tail_ok  # noqa: E402


# ----------------------------------------------------------------------
# Percentile helper
# ----------------------------------------------------------------------
def test_percentile_interpolates():
    values = list(range(1, 101))
    assert percentile(values, 50) == pytest.approx(50.5)
    assert percentile(values, 90) == pytest.approx(90.1)


def test_percentile_needs_ten_samples_beyond_it():
    assert tail_ok(100, 90)
    assert not tail_ok(99, 90)
    percentile(list(range(100)), 90)
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        percentile(list(range(1000)), 99.5)


def test_median_of_one_sample_is_allowed():
    assert percentile([3.0], 50) == 3.0


def test_serve_classes_have_enough_samples_for_p90():
    per_class = serve_mixed.CLASS_SIZE * serve_mixed.MIN_SCRIPTS
    assert per_class * 0.1 >= MIN_TAIL


def test_serve_scripts_resubmit_every_fresh_spec_once():
    scripts = serve_mixed.make_scripts(5)
    assert len(scripts) > serve_mixed.RUN_SCRIPTS
    for before, script in zip(scripts, scripts[1:]):
        fresh = sorted(label for cls, label, _ in before if cls != "hit")
        hits = sorted(label for cls, label, _ in script if cls == "hit")
        assert hits == fresh
        for cls in ("packet", "analytic"):
            assert sum(1 for c, _, _ in script if c == cls) == serve_mixed.CLASS_SIZE


# ----------------------------------------------------------------------
# Row digests and the checks built on them
# ----------------------------------------------------------------------
def test_digest_ignores_key_order_but_not_values():
    row = {"kernel_us": 17.430559, "arch": "PCIe"}
    assert digest(row) == digest({"arch": "PCIe", "kernel_us": 17.430559})
    assert digest(row) != digest({"arch": "PCIe", "kernel_us": 17.43056})
    assert digest(json.loads(json.dumps(row))) == digest(row)


def _record(cls, label, row, source="run"):
    return {"class": cls, "label": label, "error": None, "row": row, "source": source}


@pytest.fixture(scope="module")
def packet_row():
    from repro.exec.jobs import SweepJob, execute_job
    from repro.system.spec import SystemSpec

    label, spec = serve_mixed.packet_catalogue()[0]
    return label, execute_job(SweepJob(SystemSpec.from_dict(spec))).result.as_row()


def test_check_records_flags_a_packet_row_that_differs_from_reference(packet_row):
    label, row = packet_row
    report = workloads.Report()
    serve_mixed.check_records(report, [_record("packet", label, row)])
    assert report.failed == 0 and not report.problems

    changed = dict(row, kernel_us=row["kernel_us"] * (1 + 1e-12))
    report = workloads.Report()
    serve_mixed.check_records(report, [_record("packet", label, changed)])
    assert report.failed == 1 and report.problems


def test_check_records_flags_a_hit_that_changed_or_missed_the_cache(packet_row):
    label, row = packet_row
    report = workloads.Report()
    hit = _record("hit", label, dict(row), source="cache")
    serve_mixed.check_records(report, [_record("packet", label, row), hit])
    assert report.failed == 0
    for hit in (
        _record("hit", label, dict(row, kernel_us=row["kernel_us"] + 1.0), source="cache"),
        _record("hit", label, row, source="run"),
    ):
        report = workloads.Report()
        serve_mixed.check_records(report, [_record("packet", label, row), hit])
        assert report.failed == 1


def test_reference_covers_every_packet_spec():
    labels = {label for label, _ in serve_mixed.packet_catalogue()}
    assert set(workloads.reference()["serve-packet"]) == labels
    assert len(workloads.reference()["contention-packet"]) == 64


# ----------------------------------------------------------------------
# Shim installer
# ----------------------------------------------------------------------
def _originals():
    import importlib

    found = []
    for module_name, owner_name, attr, _ in ledger.TARGETS:
        owner = importlib.import_module(module_name)
        if owner_name is not None:
            owner = getattr(owner, owner_name)
        found.append((owner, attr, owner.__dict__[attr]))
    return found


def _tiny_run():
    from repro.experiments.common import job_for

    return job_for("UMN", "CP", scale=0.01).system.run()


def test_shims_wrap_every_target_and_restore_the_exact_objects():
    before = _originals()
    book = ledger.Ledger()
    with ledger.Shims(book):
        for owner, attr, original in before:
            assert owner.__dict__[attr] is not original
        _tiny_run()
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original
    assert book.spans["system.builder"][0] == 1
    assert book.obs.profiler.events > 0
    assert len(book.sim_records) == 1


def test_no_traced_state_leaks_into_an_untraced_run():
    book = ledger.Ledger()
    with ledger.Shims(book):
        _tiny_run()
    spans = json.dumps(book.to_dict(), sort_keys=True)
    from repro.system.builder import MultiGPUSystem
    from repro.system.configs import get_spec

    system = MultiGPUSystem(get_spec("UMN"))
    assert system.sim.profiler is None
    _tiny_run()
    assert json.dumps(book.to_dict(), sort_keys=True) == spans


def test_shims_restore_after_an_exception():
    before = _originals()
    with pytest.raises(RuntimeError):
        with ledger.Shims(ledger.Ledger()):
            raise RuntimeError("boom")
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original


def test_sliced_points_restores_execute_job_and_keeps_outcomes(tmp_path):
    from repro.exec import executor as executor_module
    from repro.exec.jobs import execute_job
    from repro.experiments.common import job_for

    job = job_for("UMN", "CP", scale=0.01)
    with workloads.sliced_points(str(tmp_path)):
        sliced = executor_module.execute_job
        assert isinstance(sliced, workloads.SlicedExecuteJob)
        outcome = sliced(job)
    assert executor_module.execute_job is execute_job
    assert outcome == execute_job(job)
    (line,) = workloads.read_point_speeds(str(tmp_path))
    assert line["label"] == job.label and line["factor"] > 0
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# ----------------------------------------------------------------------
def test_benchmark_json_lists_the_metrics_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    sys.path.insert(0, PERFBENCH)
    import run

    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert benchlib.ROOT == ROOT
