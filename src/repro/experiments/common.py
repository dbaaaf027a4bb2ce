"""Shared experiment plumbing: result tables, rendering, export, and
running a sweep's jobs into a result (:func:`run_jobs`)."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..exec.executor import SweepExecutor
from ..exec.jobs import JobFailure, SweepJob, job_for  # noqa: F401  (re-export)
from ..obs.telemetry import JobTelemetry, flight_summary
from ..system.metrics import RunResult
from .claims import evaluate


@dataclass
class ExperimentResult:
    """The outcome of reproducing one table or figure.

    ``rows`` are flat dicts (one per reported data point); ``paper_note``
    records what the paper claims so reports can show paper-vs-measured
    side by side, and ``render()`` adds a verdict for every claim in
    :mod:`repro.experiments.claims` that reads ``experiment_id``'s rows.
    """

    experiment: str
    title: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    paper_note: str = ""
    notes: List[str] = field(default_factory=list)
    #: Failed sweep points (keep-going mode); empty on a clean run.
    failures: List[JobFailure] = field(default_factory=list)
    #: Flight-recorder records, one per sweep job in submission order
    #: (see :mod:`repro.obs.telemetry`); observational only — never part
    #: of rows, exports, or cache identity.
    telemetry: List[JobTelemetry] = field(default_factory=list)
    #: Registry id whose claims read these rows (never exported).
    experiment_id: str = ""

    def add(self, **fields: object) -> None:
        self.rows.append(fields)

    def note(self, text: str) -> None:
        self.notes.append(text)

    @property
    def complete(self) -> bool:
        """True when every sweep point produced a row (no failures)."""
        return not self.failures

    def flight_summary(
        self, cache_stats=None, pool_spawns=None
    ) -> Dict[str, object]:
        """Aggregate this experiment's per-job telemetry (see
        :func:`repro.obs.telemetry.flight_summary`)."""
        return flight_summary(
            self.telemetry, self.failures, cache_stats, pool_spawns
        )

    # ------------------------------------------------------------------
    def columns(self) -> List[str]:
        cols: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        return cols

    def render(self) -> str:
        """Plain-text table, suitable for terminal output and reports."""
        lines = [f"== {self.experiment}: {self.title} =="]
        if self.paper_note:
            lines.append(f"paper: {self.paper_note}")
        cols = self.columns()
        if self.rows:
            widths = {
                c: max(len(c), *(len(_fmt(r.get(c, ""))) for r in self.rows))
                for c in cols
            }
            header = "  ".join(c.ljust(widths[c]) for c in cols)
            lines.append(header)
            lines.append("-" * len(header))
            for row in self.rows:
                lines.append(
                    "  ".join(_fmt(row.get(c, "")).ljust(widths[c]) for c in cols)
                )
        for note in self.notes:
            lines.append(f"note: {note}")
        lines += [v.render() for v in evaluate(self.experiment_id, self.rows)]
        if self.failures:
            lines.append(f"FAILED sweep points ({len(self.failures)}):")
            for failure in self.failures:
                lines.append(f"  {failure.summary()}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_csv(self) -> str:
        """The rows as CSV text (header from the union of row keys)."""
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=self.columns())
        writer.writeheader()
        for row in self.rows:
            writer.writerow(row)
        return buffer.getvalue()

    def to_json(self) -> str:
        """The full result (metadata + rows + notes) as JSON text."""
        return json.dumps(
            {
                "experiment": self.experiment,
                "title": self.title,
                "paper_note": self.paper_note,
                "rows": self.rows,
                "notes": self.notes,
                "failures": [
                    {
                        "label": f.label,
                        "exc_type": f.exc_type,
                        "message": f.message,
                    }
                    for f in self.failures
                ],
            },
            indent=2,
        )

    def save(self, path: str) -> None:
        """Write to ``path``; format chosen by extension (.csv or .json)."""
        if path.endswith(".csv"):
            payload = self.to_csv()
        elif path.endswith(".json"):
            payload = self.to_json()
        else:
            raise ValueError(f"unsupported extension for {path!r} (.csv/.json)")
        with open(path, "w") as handle:
            handle.write(payload)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def run_jobs(
    jobs: Sequence[SweepJob],
    executor: SweepExecutor,
    result: ExperimentResult,
) -> List[Optional[RunResult]]:
    """Execute a sweep and merge failures into ``result``.

    Returns one entry per job, in submission order: the
    :class:`RunResult` for points that ran (or hit the cache), ``None``
    for points that failed under keep-going — their structured
    :class:`~repro.exec.jobs.JobFailure` records land on
    ``result.failures``, and the merge loops skip the holes.  Under
    fail-fast (the executor default) a failure raises
    :class:`~repro.errors.SweepError` instead, after completed results
    were salvaged into the cache.
    """
    results: List[Optional[RunResult]] = []
    for outcome in executor.map_outcomes(jobs):
        if outcome.telemetry is not None:
            result.telemetry.append(outcome.telemetry)
        if outcome.ok:
            results.append(outcome.result)
        else:
            result.failures.append(outcome.failure)
            results.append(None)
    return results
