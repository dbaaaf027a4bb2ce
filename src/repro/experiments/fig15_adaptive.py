"""Fig. 15 — minimal (MIN) vs load-balanced adaptive (UGAL) routing.

On the distributor-based dragonfly and flattened butterfly (the topologies
with intra-cluster path diversity), uniform workloads gain only ~1-2% from
adaptive routing because random traffic self-balances, while the imbalanced
CG.S gains ~9.5% on dFBFLY (Section VI-B1).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..config import SystemConfig
from ..exec import SweepExecutor
from ..system.configs import get_spec
from .common import ExperimentResult, run_jobs

#: (workload, scale): CG.S needs its full (imbalanced) footprint.
DEFAULT_POINTS: Sequence[Tuple[str, float]] = (
    ("KMN", 0.25),
    ("CP", 0.25),
    ("CG.S", 4.0),
)


def run(
    points: Sequence[Tuple[str, float]] = DEFAULT_POINTS,
    cfg: Optional[SystemConfig] = None,
    executor: Optional[SweepExecutor] = None,
) -> ExperimentResult:
    cfg = cfg or SystemConfig()
    executor = executor or SweepExecutor()
    result = ExperimentResult(
        "Fig. 15",
        "MIN vs UGAL routing on dDFLY and dFBFLY (GMN)",
        paper_note=(
            "~1-2% for uniform workloads (KMN, CP); 9.5% for CG.S on dFBFLY"
        ),
        experiment_id="fig15",
    )
    jobs = [
        executor.job(
            get_spec("GMN").with_(topology=topology, routing=routing),
            name,
            cfg,
            scale=scale,
        )
        for topology in ("ddfly", "dfbfly")
        for name, scale in points
        for routing in ("min", "ugal")
    ]
    results = iter(run_jobs(jobs, executor, result))
    for topology in ("ddfly", "dfbfly"):
        for name, _scale in points:
            pair = {routing: next(results) for routing in ("min", "ugal")}
            if any(r is None for r in pair.values()):
                continue  # failed point (keep-going); reported on result
            runtimes: Dict[str, int] = {
                routing: r.kernel_ps for routing, r in pair.items()
            }
            gain = 100 * (runtimes["min"] - runtimes["ugal"]) / runtimes["min"]
            result.add(
                topology=topology,
                workload=name,
                min_us=runtimes["min"] / 1e6,
                ugal_us=runtimes["ugal"] / 1e6,
                ugal_gain_pct=round(gain, 1),
            )
    return result
