"""Section III-B — CTA scheduler study.

Static chunked assignment vs fine-grained round-robin vs the dynamic
two-level scheduler with CTA stealing.  The paper reports the static
assignment 8% faster overall than round-robin (cache locality: L1 hit rate
up to +43%, L2 up to +20%) and <1% gain from stealing.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import SystemConfig
from ..exec import SweepExecutor
from ..system.configs import get_spec
from . import claims
from .common import ExperimentResult, run_jobs

POLICIES = ("static", "round_robin", "stealing")
DEFAULT_WORKLOADS = ("BP", "SRAD", "KMN", "SCAN", "3DFD", "FWT", "STO", "CP")


def run(
    scale: float = 0.5,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    cfg: Optional[SystemConfig] = None,
    executor: Optional[SweepExecutor] = None,
) -> ExperimentResult:
    cfg = cfg or SystemConfig()
    executor = executor or SweepExecutor()
    result = ExperimentResult(
        "Sec. III-B",
        "CTA assignment: static chunks vs round-robin vs stealing (UMN)",
        paper_note=(
            "static 8% faster than round-robin overall; L1 +43% / L2 +20% "
            "max; stealing < 1%"
        ),
        experiment_id="sec3b",
    )
    jobs = [
        executor.job(get_spec("UMN").with_(cta_policy=policy), name, cfg, scale=scale)
        for name in workloads
        for policy in POLICIES
    ]
    results = iter(run_jobs(jobs, executor, result))
    for name in workloads:
        s, rr, st = (next(results) for _ in POLICIES)
        if None in (s, rr, st):
            continue  # a policy's point failed; the row needs all three
        result.add(
            workload=name,
            static_us=s.kernel_ps / 1e6,
            round_robin_us=rr.kernel_ps / 1e6,
            stealing_us=st.kernel_ps / 1e6,
            l2_hit_static=round(s.l2_hit_rate, 3),
            l2_hit_rr=round(rr.l2_hit_rate, 3),
            l1_hit_static=round(s.l1_hit_rate, 3),
            l1_hit_rr=round(rr.l1_hit_rate, 3),
        )
    if not result.complete:
        return result  # summary notes need every (workload, policy) point
    overall = claims.measure("sec3b.static-vs-rr", result.rows)
    stealing = claims.measure("sec3b.stealing-vs-static", result.rows)
    l2_gain = max(claims.l2_gains(result.rows).values())
    result.note(f"static vs round-robin speedup (geomean): {overall:.3f}x (paper: 1.08x)")
    result.note(f"max L2 hit-rate gain: +{100 * l2_gain:.0f}pp (paper: up to +20%)")
    result.note(f"stealing vs static: {stealing:.3f}x (paper: < 1.01x)")
    return result
