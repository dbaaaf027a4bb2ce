"""The cross-tier harness: row comparison, tolerances, claim verdicts and
CLI dispatch."""

import copy
import json

import pytest

from repro.analytic.calibrate import DEFAULT_PATH, load_calibration
from repro.exec.xtier import (
    DEFAULT_TOLERANCE,
    TOLERANCE_FLOOR,
    TOLERANCE_MARGIN,
    check,
    claim_mismatches,
    compare_rows,
    relative_error,
    tolerance_from_errors,
)


class TestRelativeError:
    def test_symmetric_and_bounded(self):
        assert relative_error(100.0, 100.0) == 0.0
        assert relative_error(100.0, 50.0) == pytest.approx(0.5)
        assert relative_error(50.0, 100.0) == pytest.approx(0.5)
        # Zero reference cannot explode the metric.
        assert relative_error(0.0, 123.0) == pytest.approx(1.0)
        assert relative_error(0.0, 0.0) == 0.0


class TestCompareRows:
    def test_within_tolerance_is_clean(self):
        reference = [{"workload": "BP", "kernel_us": 100.0}]
        candidate = [{"workload": "BP", "kernel_us": 109.0}]
        worst, breaches = compare_rows(reference, candidate, {"kernel_us": 0.1})
        assert not breaches
        assert worst["kernel_us"] == pytest.approx(9.0 / 109.0)

    def test_breach_reports_row_and_column(self):
        reference = [{"workload": "BP", "kernel_us": 100.0}]
        candidate = [{"workload": "BP", "kernel_us": 150.0}]
        _, breaches = compare_rows(reference, candidate, {"kernel_us": 0.1})
        assert len(breaches) == 1
        assert breaches[0]["row"] == 0
        assert breaches[0]["column"] == "kernel_us"
        assert breaches[0]["tolerance"] == 0.1

    def test_unknown_column_uses_default_band(self):
        reference = [{"x": 1.0}]
        ok = [{"x": 1.0 + DEFAULT_TOLERANCE * 0.9}]
        bad = [{"x": 1.0 / (1.0 - DEFAULT_TOLERANCE) + 1.0}]
        assert not compare_rows(reference, ok, {})[1]
        assert compare_rows(reference, bad, {})[1]

    def test_identity_columns_must_match_exactly(self):
        reference = [{"workload": "BP", "kernel_us": 1.0}]
        candidate = [{"workload": "BFS", "kernel_us": 1.0}]
        _, breaches = compare_rows(reference, candidate, {})
        assert breaches and "identity mismatch" in breaches[0]["note"]

    def test_row_count_mismatch_is_structural(self):
        _, breaches = compare_rows([{"x": 1.0}], [], {})
        assert breaches and "row count differs" in breaches[0]["note"]

    def test_bools_are_identity_not_numbers(self):
        reference = [{"flag": True}]
        _, breaches = compare_rows(reference, [{"flag": False}], {})
        assert breaches and "identity mismatch" in breaches[0]["note"]


def _swapped_fig14(rows):
    """Fig. 14 rows with UMN's and PCIe's totals swapped on BP."""
    rows = copy.deepcopy(rows)
    umn, pcie = (
        next(r for r in rows if r["workload"] == "BP" and r["arch"] == arch)
        for arch in ("UMN", "PCIe")
    )
    umn["total_us"], pcie["total_us"] = pcie["total_us"], umn["total_us"]
    return rows


class TestClaimVerdicts:
    """``check`` fails when an analytic row set flips a paper claim's
    verdict against the committed packet rows.  The packet refit is
    stubbed with the committed coefficients (no drift)."""

    @pytest.fixture
    def committed(self, monkeypatch):
        from repro.exec import xtier

        artifact = load_calibration(DEFAULT_PATH)
        monkeypatch.setattr(xtier, "refit", lambda scale, executor=None: artifact)
        return artifact

    def test_same_rows_have_no_mismatch(self, committed):
        for figure, reference in committed.figures.items():
            assert claim_mismatches(figure, reference.rows, reference.rows) == []

    def test_swapped_rows_name_the_flipped_claim(self, committed):
        rows = committed.figures["fig14"].rows
        mismatches = claim_mismatches("fig14", rows, _swapped_fig14(rows))
        assert any(
            line.startswith("claim fig14.umn-fastest FAILS on analytic rows")
            and line.endswith("holds on packet rows")
            for line in mismatches
        )

    def test_fig17_claims_are_checked_with_fig16(self, committed):
        rows = copy.deepcopy(committed.figures["fig16"].rows)
        for row in rows:
            if row["topology"] == "sfbfly":
                row["energy_uj"] *= 3
        mismatches = claim_mismatches("fig16", committed.figures["fig16"].rows, rows)
        assert any("claim fig17.sfbfly-lowest-energy" in line for line in mismatches)

    def test_fresh_analytic_rows_pass_the_gate(self, committed):
        report = check(["fig7", "fig14", "fig16"], 0.25, str(DEFAULT_PATH))
        assert report["ok"], report["problems"]
        assert all(not e["claim_mismatches"] for e in report["figures"].values())

    def test_check_fails_on_a_flipped_verdict(self, committed, monkeypatch):
        from repro.exec import xtier

        monkeypatch.setattr(
            xtier,
            "run_figure_rows",
            lambda figure, scale, fidelity, executor=None: _swapped_fig14(
                committed.figures[figure].rows
            ),
        )
        report = check(["fig14"], 0.25, str(DEFAULT_PATH))
        assert not report["ok"]
        flipped = [p for p in report["problems"] if "fig14.umn-fastest" in p]
        assert flipped == [
            "fig14: claim fig14.umn-fastest FAILS on analytic rows but "
            "holds on packet rows"
        ]
        assert report["figures"]["fig14"]["claim_mismatches"]


class TestToleranceFromErrors:
    def test_margin_and_floor(self):
        bands = tolerance_from_errors({"big": 0.4, "tiny": 0.001})
        assert bands["big"] == pytest.approx(0.4 * TOLERANCE_MARGIN)
        assert bands["tiny"] == TOLERANCE_FLOOR


class TestMainDispatch:
    @pytest.mark.parametrize(
        "argv", [[], ["diff"], ["--fresh", "x"]], ids=["bare", "diff", "flags"]
    )
    def test_anything_but_xtier_prints_usage(self, argv, capsys):
        from repro.exec.__main__ import main

        assert main(argv) == 2
        assert "usage: python -m repro.exec xtier" in capsys.readouterr().err

    def test_xtier_reports_missing_reference(self, tmp_path, capsys, monkeypatch):
        from repro.analytic import Calibration, calibrate
        from repro.exec import xtier
        from repro.exec.__main__ import main

        artifact = tmp_path / "calibration.json"
        artifact.write_text(json.dumps({"schema": 1, "coefficients": {}}))
        # Point the committed-artifact path at an empty artifact and stub
        # out the (packet-sweep) refit.
        monkeypatch.setattr(calibrate, "DEFAULT_PATH", str(artifact))
        monkeypatch.setattr(
            xtier, "refit", lambda scale, executor=None: Calibration()
        )
        out = tmp_path / "report.json"
        code = main(
            [
                "xtier",
                "--figures",
                "fig14",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        report = json.loads(out.read_text())
        assert report["figures"]["fig14"]["missing_reference"]
        assert not report["ok"]
