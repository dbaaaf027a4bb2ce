"""The paper's claims as a tier-1 oracle, with no packet simulation.

Every claim whose rows are committed must hold on them: Figs. 7, 14 and 16
(and Fig. 17, which reads the Fig. 16 sweep) on the calibration artifact's
packet rows, the network-only and concurrent-kernel extensions on
``tests/data/ext_rows.json``, and Fig. 12 fresh (it only counts links).
The analytic tier must agree on every Fig. 7/14/16/17 claim.  Claims over
the other experiments run on fresh sweeps in ``benchmarks/bench_claims.py``.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from repro.analytic.calibrate import DEFAULT_PATH, load_calibration
from repro.exec.xtier import FIGURES, run_figure_rows
from repro.experiments import EXPERIMENTS, claims

REPO = Path(__file__).resolve().parents[2]
EXT_ROWS = json.loads((REPO / "tests" / "data" / "ext_rows.json").read_text())


def _committed():
    figures = load_calibration(DEFAULT_PATH).figures
    rows = {fig: figures[fig].rows for fig in FIGURES}
    rows.update(EXT_ROWS)
    rows["fig12"] = EXPERIMENTS["fig12"]().rows
    return rows


COMMITTED = _committed()


def _failures(experiment, rows):
    verdicts = claims.evaluate(experiment, rows)
    assert verdicts, f"no claims read {experiment}"
    return [v.render() for v in verdicts if not v.holds]


@pytest.mark.parametrize("experiment", sorted(COMMITTED))
def test_claims_hold_on_committed_rows(experiment):
    assert not _failures(experiment, COMMITTED[experiment])


@pytest.mark.parametrize("figure", FIGURES)
def test_analytic_tier_agrees_on_every_claim(figure):
    assert not _failures(figure, run_figure_rows(figure, 0.25, "analytic"))


def _verdict(experiment, rows, claim_id):
    (verdict,) = [
        v for v in claims.evaluate(experiment, rows) if v.claim.id == claim_id
    ]
    return verdict


@pytest.fixture
def fig14_swapped():
    """Committed Fig. 14 rows with UMN's and PCIe's totals swapped on BP."""
    rows = copy.deepcopy(COMMITTED["fig14"])
    umn, pcie = (
        next(r for r in rows if r["workload"] == "BP" and r["arch"] == arch)
        for arch in ("UMN", "PCIe")
    )
    umn["total_us"], pcie["total_us"] = pcie["total_us"], umn["total_us"]
    return rows


def test_swapped_fig14_rows_fail(fig14_swapped):
    verdict = _verdict("fig14", fig14_swapped, "fig14.umn-fastest")
    assert verdict.holds is False and verdict.margin < 0
    assert "FAILS" in verdict.render()


def test_upper_bound_catches_a_growing_overshoot():
    rows = copy.deepcopy(COMMITTED["fig14"])
    for row in rows:
        if row["arch"] == "PCIe":
            row["total_us"] *= 2
    assert _verdict("fig14", rows, "fig14.umn-speedup").holds is False


def test_divergent_sfbfly_and_dfbfly_fail():
    rows = copy.deepcopy(COMMITTED["ext-latency-load"])
    next(r for r in rows if r["topology"] == "dfbfly")["lat@90%"] += 0.1
    verdict = _verdict("ext-latency-load", rows, "ext-latency-load.sfbfly-equals-dfbfly")
    assert verdict.holds is False


def test_fig17_reads_the_fig16_sweep():
    rows = copy.deepcopy(COMMITTED["fig16"])
    for row in rows:
        if row["topology"] == "sfbfly":
            row["energy_uj"] *= 3
    failed = _failures("fig16", rows)
    assert any("fig17.sfbfly-lowest-energy" in line for line in failed)


def test_absent_rows_are_not_applicable():
    assert all(v.holds is None for v in claims.evaluate("fig14", []))
    # A keep-going hole (BP on PCIe) leaves only the claims that read
    # other rows (SCAN and 3DFD on PCIe) judged; none fails.
    hole = [
        r for r in COMMITTED["fig14"] if (r["workload"], r["arch"]) != ("BP", "PCIe")
    ]
    judged = {v.claim.id: v for v in claims.evaluate("fig14", hole) if v.value is not None}
    assert sorted(judged) == ["fig14.zc-memcpy-bound"]
    assert judged["fig14.zc-memcpy-bound"].holds
    na = _verdict("fig14", hole, "fig14.umn-fastest")
    assert na.value is None and na.render().endswith("n/a (rows absent)")


def test_render_prints_verdicts_outside_the_export():
    result = EXPERIMENTS["fig12"]()
    text = result.render()
    assert "claim fig12.saving-4gpu: holds" in text
    assert "claim fig12" not in result.to_json()


def _benched():
    path = REPO / "benchmarks" / "bench_claims.py"
    spec = importlib.util.spec_from_file_location("bench_claims", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BENCHED


def test_every_claim_is_checked_somewhere():
    ids = [c.id for c in claims.CLAIMS]
    assert len(ids) == len(set(ids))
    checked = set(COMMITTED) | set(_benched())
    unchecked = [c.id for c in claims.CLAIMS if c.experiment not in checked]
    assert not unchecked
    assert all(c.experiment in EXPERIMENTS for c in claims.CLAIMS)
