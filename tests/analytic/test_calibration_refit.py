"""A calibration refit seen by a running process keys and computes alike.

A long-lived process (a ``repro serve`` daemon, a notebook) may see
``calibration.json`` rewritten under it.  Each analytic row must then be
stored under the digest of the coefficients that computed it: the cache
key moves with the file, so the coefficients must move too, or a later
run on the same cache directory is served rows made with the old ones.
"""

from __future__ import annotations

import dataclasses
import shutil

import pytest

from repro.analytic import analytic_run, calibrate, profile_for
from repro.analytic.calibrate import load_calibration
from repro.exec import SweepExecutor, job_key
from repro.exec.cache import ResultCache


def _double_kernel_coefficients(path: str) -> None:
    artifact = load_calibration(path)
    artifact.coefficients = {
        key: dataclasses.replace(coeffs, kernel=2.0 * coeffs.kernel)
        for key, coeffs in artifact.coefficients.items()
    }
    artifact.save(path)


def test_rows_follow_a_refit_in_the_same_process(tmp_path, monkeypatch):
    path = tmp_path / "calibration.json"
    shutil.copy(calibrate.DEFAULT_PATH, path)
    monkeypatch.setattr(calibrate, "DEFAULT_PATH", str(path))
    cache = ResultCache()
    executor = SweepExecutor(cache=cache, fidelity="analytic")
    before = executor.job("GMN", "BP", scale=0.25)
    [old] = executor.map([before])
    old_key = job_key(before)

    _double_kernel_coefficients(str(path))
    after = executor.job("GMN", "BP", scale=0.25)
    assert job_key(after) != old_key
    [new] = executor.map([after])

    # What a fresh process computes: the rewritten artifact, read anew.
    coefficients = load_calibration(str(path))
    fresh = analytic_run(
        after.spec, profile_for(after.workload), after.cfg, calibration=coefficients
    )
    assert new.as_row() == fresh.as_row()
    assert cache.get(after).as_row() == fresh.as_row()
    assert new.kernel_ps == pytest.approx(2.0 * old.kernel_ps, rel=1e-5)
