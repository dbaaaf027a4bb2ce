"""Cross-tier validation harness (``python -m repro.exec xtier``).

The analytic tier is only useful while it stays honest against the
packet model it abstracts.  This harness enforces that, three ways:

- **Tolerance**: it re-runs the validation figures (Fig. 7, Fig. 14,
  Fig. 16) at analytic fidelity and compares every row, column by
  column, against the packet-fidelity reference rows committed in the
  calibration artifact.  Any column drifting past its per-figure
  tolerance band fails the run.
- **Claims**: every paper claim over those figures (Fig. 17's read the
  Fig. 16 rows) must get the same verdict from the analytic rows as from
  the committed packet rows.
- **Staleness**: it refits the calibration coefficients in memory from a
  fresh packet sweep and compares them to the committed ones.  A drift
  beyond :data:`~repro.analytic.calibrate.STALE_DRIFT` means the
  simulator changed under the artifact; the run fails so the artifact
  cannot silently rot (fix: ``xtier --recalibrate`` and commit).

``--recalibrate`` rebuilds the whole artifact: fits coefficients from
the packet sweep, reruns the figures at both fidelities, derives each
column's tolerance from the observed residual (x1.25 margin, 0.05
floor), and writes coefficients + packet reference rows + tolerances
back to the artifact.

The packet sweep reuses the normal executor stack — ``--jobs`` and
``--cache`` behave exactly as on the ``repro`` CLI, so with a warm cache
the packet points are cache hits.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analytic import (
    Calibration,
    FigureReference,
    analytic_run,
    calibration_key,
    fit_coefficients,
    load_calibration,
    profile_for,
)
from ..analytic import calibrate
from ..config import SystemConfig
from ..errors import SimulationError
from ..system.spec import WorkloadRef
from .cache import ResultCache, job_key
from .executor import SweepExecutor
from .jobs import SweepJob, job_for

#: Figures the harness validates (the committed artifact carries one
#: :class:`~repro.analytic.calibrate.FigureReference` per entry).
FIGURES = ("fig7", "fig14", "fig16")

#: Relative tolerance for columns the artifact carries no band for.
DEFAULT_TOLERANCE = 0.5

#: Recalibration turns the observed residual into the committed band.
TOLERANCE_MARGIN = 1.25
TOLERANCE_FLOOR = 0.05


# ----------------------------------------------------------------------
# Fit grid: the union of the validation figures' sweep points
# ----------------------------------------------------------------------
def fit_jobs(scale: float) -> List[SweepJob]:
    """The packet-fidelity sweep the coefficients are fitted on: every
    (architecture, workload) point the validation figures simulate,
    deduplicated (Fig. 14's GMN column and Fig. 16's sMESH row coincide).
    """
    from ..experiments.fig07_remote_access import DISTRIBUTIONS
    from ..experiments.fig14_organizations import ARCHS
    from ..experiments.fig16_fig17_topologies import DEFAULT_WORKLOADS, TOPOLOGIES
    from ..system.configs import get_spec
    from ..workloads.suite import WORKLOAD_NAMES

    cfg = SystemConfig()
    jobs = [
        job_for(arch, name, cfg, scale=scale)
        for name in WORKLOAD_NAMES
        for arch in ARCHS
    ]
    jobs += [
        job_for(get_spec("GMN").with_(topology=topology), name, cfg, scale=scale)
        for name in DEFAULT_WORKLOADS
        for topology in TOPOLOGIES
    ]
    vectoradd = WorkloadRef(
        "vectoradd",
        factory="repro.workloads.vectoradd:make_vectoradd",
        kwargs=(("num_ctas", 96), ("lines_per_cta", 8)),
    )
    gmn_cfg = dataclasses.replace(
        cfg, hmc=dataclasses.replace(cfg.hmc, vault_bus_bytes_per_cycle=2)
    )
    for arch, run_cfg in (("PCIe", cfg), ("GMN", gmn_cfg)):
        for _label, weights in DISTRIBUTIONS:
            jobs.append(
                job_for(
                    arch,
                    vectoradd,
                    run_cfg,
                    placement_policy="weighted",
                    placement_clusters=(0, 1, 2, 3),
                    placement_weights=tuple(weights),
                    num_active_gpus=1,
                )
            )
    seen = set()
    unique = []
    for job in jobs:
        key = job_key(job)
        if key not in seen:
            seen.add(key)
            unique.append(job)
    return unique


def refit(scale: float, executor=None) -> Calibration:
    """Fit fresh coefficients: packet runs via the executor (cacheable),
    raw analytic predictions inline (identity coefficients), grouped by
    calibration key."""
    executor = executor or SweepExecutor()
    jobs = fit_jobs(scale)
    packet = executor.map(jobs)
    pairs: Dict[str, List[Tuple[Any, Any]]] = {}
    for job, measured in zip(jobs, packet):
        if measured is None:
            raise SimulationError(
                f"fit sweep point {job.label} failed; cannot calibrate"
            )
        raw = analytic_run(
            job.spec,
            profile_for(job.workload),
            cfg=job.cfg,
            calibration=Calibration(),
            **dict(job.run_kwargs),
        )
        pairs.setdefault(calibration_key(job.spec, job.cfg), []).append(
            (measured, raw)
        )
    return Calibration(
        coefficients={
            key: fit_coefficients(group) for key, group in sorted(pairs.items())
        },
        meta={"scale": scale, "fit_points": len(jobs)},
    )


# ----------------------------------------------------------------------
# Figure runs and row comparison
# ----------------------------------------------------------------------
def run_figure_rows(
    figure: str, scale: float, fidelity: str, executor=None
) -> List[Dict[str, Any]]:
    """One validation figure's rows at the given fidelity tier.

    The tier rides in the figure's base config: every validation figure
    takes ``cfg`` and derives its per-job configs from it.
    """
    from ..experiments import EXPERIMENTS

    kwargs: Dict[str, Any] = {} if figure == "fig7" else {"scale": scale}
    result = EXPERIMENTS[figure](
        cfg=SystemConfig(network_model=fidelity),
        executor=executor or SweepExecutor(),
        **kwargs,
    )
    if result.failures:
        raise SimulationError(
            f"{figure} at {fidelity} fidelity had "
            f"{len(result.failures)} failed sweep point(s): "
            + "; ".join(f.summary() for f in result.failures)
        )
    return result.rows


def relative_error(reference: float, candidate: float) -> float:
    """Symmetric relative error, bounded by 1.0 when signs agree (keeps
    zero-valued reference columns from exploding the metric)."""
    denom = max(abs(reference), abs(candidate), 1e-12)
    return abs(reference - candidate) / denom


def compare_rows(
    reference: Sequence[Dict[str, Any]],
    candidate: Sequence[Dict[str, Any]],
    tolerance: Dict[str, float],
) -> Tuple[Dict[str, float], List[Dict[str, Any]]]:
    """Compare figure rows pairwise.  Returns (worst error per column,
    breach records).  Identity columns (strings) must match exactly;
    numeric columns must stay within their tolerance band."""
    worst: Dict[str, float] = {}
    breaches: List[Dict[str, Any]] = []
    if len(reference) != len(candidate):
        breaches.append(
            {
                "row": None,
                "column": None,
                "error": None,
                "note": f"row count differs: {len(candidate)} analytic vs "
                f"{len(reference)} reference",
            }
        )
        return worst, breaches
    for i, (ref_row, row) in enumerate(zip(reference, candidate)):
        for column, ref_val in ref_row.items():
            val = row.get(column)
            if isinstance(ref_val, bool) or not isinstance(ref_val, (int, float)):
                if val != ref_val:
                    breaches.append(
                        {
                            "row": i,
                            "column": column,
                            "error": None,
                            "note": f"identity mismatch: {val!r} vs {ref_val!r}",
                        }
                    )
                continue
            if not isinstance(val, (int, float)) or isinstance(val, bool):
                breaches.append(
                    {
                        "row": i,
                        "column": column,
                        "error": None,
                        "note": f"non-numeric analytic value {val!r}",
                    }
                )
                continue
            err = relative_error(float(ref_val), float(val))
            worst[column] = max(worst.get(column, 0.0), err)
            band = tolerance.get(column, DEFAULT_TOLERANCE)
            if err > band:
                breaches.append(
                    {
                        "row": i,
                        "column": column,
                        "reference": ref_val,
                        "analytic": val,
                        "error": round(err, 4),
                        "tolerance": band,
                    }
                )
    return worst, breaches


def claim_mismatches(
    figure: str,
    reference: Sequence[Dict[str, Any]],
    candidate: Sequence[Dict[str, Any]],
) -> List[str]:
    """One line per paper claim over ``figure``'s rows (Fig. 17's claims
    read Fig. 16's) whose verdict differs between the packet reference
    rows and the analytic rows.  Rows can sit inside every tolerance band
    and still reorder two organizations; this catches that."""
    from ..experiments.claims import evaluate

    def word(holds: Optional[bool]) -> str:
        return "n/a" if holds is None else "holds" if holds else "FAILS"

    packet = {v.claim.id: v.holds for v in evaluate(figure, reference)}
    return [
        f"claim {v.claim.id} {word(v.holds)} on analytic rows but "
        f"{word(packet[v.claim.id])} on packet rows"
        for v in evaluate(figure, candidate)
        if v.holds != packet[v.claim.id]
    ]


def tolerance_from_errors(worst: Dict[str, float]) -> Dict[str, float]:
    """Turn observed residuals into the committed tolerance bands."""
    return {
        column: round(max(TOLERANCE_FLOOR, err * TOLERANCE_MARGIN), 4)
        for column, err in sorted(worst.items())
    }


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def recalibrate(
    figures: Sequence[str], scale: float, path: str, executor=None
) -> Dict[str, Any]:
    """Rebuild the calibration artifact in place and report residuals."""
    executor = executor or SweepExecutor()
    artifact = refit(scale, executor)
    # Two-phase write: the analytic figure runs below must already see
    # the fresh coefficients (the process cache follows the rewritten
    # file).
    artifact.save(path)
    report: Dict[str, Any] = {"mode": "recalibrate", "figures": {}, "stale": {}}
    for figure in figures:
        reference = run_figure_rows(figure, scale, "packet", executor)
        candidate = run_figure_rows(figure, scale, "analytic", executor)
        worst, _ = compare_rows(reference, candidate, {})
        bands = tolerance_from_errors(worst)
        artifact.figures[figure] = FigureReference(tolerance=bands, rows=reference)
        report["figures"][figure] = {
            "rows": len(reference),
            "worst_error": {c: round(e, 4) for c, e in sorted(worst.items())},
            "tolerance": bands,
            "breaches": [],
        }
    artifact.meta["figures"] = list(figures)
    artifact.save(path)
    report["artifact"] = path
    report["ok"] = True
    return report


def check(
    figures: Sequence[str], scale: float, path: str, executor=None
) -> Dict[str, Any]:
    """Validate the analytic tier against the committed artifact."""
    executor = executor or SweepExecutor()
    committed = load_calibration(path)
    report: Dict[str, Any] = {"mode": "check", "figures": {}, "artifact": path}
    problems: List[str] = []
    for figure in figures:
        reference = committed.figures.get(figure)
        if reference is None or not reference.rows:
            problems.append(
                f"{figure}: no committed reference rows "
                "(run `python -m repro.exec xtier --recalibrate`)"
            )
            report["figures"][figure] = {"missing_reference": True, "breaches": []}
            continue
        candidate = run_figure_rows(figure, scale, "analytic", executor)
        worst, breaches = compare_rows(
            reference.rows, candidate, reference.tolerance
        )
        mismatches = claim_mismatches(figure, reference.rows, candidate)
        report["figures"][figure] = {
            "rows": len(candidate),
            "worst_error": {c: round(e, 4) for c, e in sorted(worst.items())},
            "tolerance": reference.tolerance,
            "breaches": breaches,
            "claim_mismatches": mismatches,
        }
        if breaches:
            problems.append(f"{figure}: {len(breaches)} tolerance breach(es)")
        problems += [f"{figure}: {line}" for line in mismatches]
    fresh = refit(scale, executor)
    stale = committed.stale_keys(fresh)
    report["stale"] = {key: round(drift, 4) for key, drift in sorted(stale.items())}
    if stale:
        worst_key = max(stale, key=stale.get)
        problems.append(
            f"calibration stale for {len(stale)} key(s) "
            f"(worst {worst_key}: {stale[worst_key]:.0%} drift, "
            f"limit {calibrate.STALE_DRIFT:.0%}); refit with --recalibrate and commit"
        )
    report["problems"] = problems
    report["ok"] = not problems
    return report


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.exec xtier",
        description=(
            "Cross-tier validation: analytic rows vs committed packet "
            "reference rows, plus calibration staleness."
        ),
    )
    parser.add_argument(
        "--figures",
        nargs="+",
        default=list(FIGURES),
        choices=list(FIGURES),
        help="validation figures (default: all)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.25,
        help="problem scale for fig14/fig16 sweeps (default: 0.25; must "
        "match the committed artifact's fit scale)",
    )
    parser.add_argument("--jobs", type=int, default=None, help="packet sweep workers")
    parser.add_argument("--cache", default=None, help="result cache directory")
    parser.add_argument(
        "--recalibrate",
        action="store_true",
        help="refit coefficients, reference rows, and tolerance bands, "
        "and write them back to the artifact",
    )
    parser.add_argument("--out", default=None, help="write the JSON report here")
    args = parser.parse_args(argv)

    path = calibrate.DEFAULT_PATH
    cache = ResultCache(args.cache) if args.cache else None
    executor = SweepExecutor(jobs=args.jobs, cache=cache)
    if args.recalibrate:
        report = recalibrate(args.figures, args.scale, path, executor)
    else:
        report = check(args.figures, args.scale, path, executor)

    for figure, entry in report["figures"].items():
        if entry.get("missing_reference"):
            print(f"{figure}: MISSING reference rows")
            continue
        worst = entry["worst_error"]
        worst_col = max(worst, key=worst.get) if worst else "-"
        status = ", ".join(
            f"{len(entry[key])} {label}"
            for key, label in (
                ("breaches", "BREACH(ES)"),
                ("claim_mismatches", "CLAIM MISMATCH(ES)"),
            )
            if entry.get(key)
        ) or "ok"
        print(
            f"{figure}: {entry['rows']} rows, worst {worst_col} "
            f"{worst.get(worst_col, 0.0):.1%}, {status}"
        )
    for key, drift in report.get("stale", {}).items():
        print(f"stale: {key} drifted {drift:.1%}")
    for problem in report.get("problems", []):
        print(f"problem: {problem}", file=sys.stderr)
    if report["mode"] == "recalibrate":
        print(f"calibration written to {report['artifact']}")

    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"[report -> {out}]")
    return 0 if report["ok"] else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
