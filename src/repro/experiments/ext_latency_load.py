"""Extension — latency-vs-load characterization of the memory networks.

The classic interconnection-network methodology ([46], Dally & Towles):
inject uniform-random read-request/response traffic from every GPU at a
controlled offered load (fraction of each GPU's injection bandwidth) and
measure average packet latency.  The saturation point of each topology is
the headroom behind the Fig. 16 application results: sFBFLY saturates last
among equal-channel sliced designs because it pairs the lowest hop count
with the highest bisection.

Every point is an ordinary sweep job: an
:class:`~repro.network.traffic.OfferedLoad` workload that ``run_workload``
drives through the bare GPU memory network.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import SystemConfig
from ..errors import ConfigError
from ..exec import SweepExecutor, SweepJob
from ..system.configs import get_spec
from ..system.spec import WorkloadRef
from .common import ExperimentResult, run_jobs

TOPOLOGIES = ("smesh", "storus", "sfbfly", "dfbfly", "ddfly")
LOADS = (0.1, 0.3, 0.5, 0.7, 0.9)


def load_point(
    executor: SweepExecutor,
    topology: str,
    load: float,
    cfg: SystemConfig,
    packets_per_gpu: int,
    seed: int,
    pattern: str = "uniform",
) -> SweepJob:
    """One latency-load point: ``pattern`` traffic at ``load`` on a bare
    ``topology`` GPU memory network, at ``cfg``'s engine tier."""
    offered = dict(
        load=load, packets_per_gpu=packets_per_gpu, pattern=pattern, seed=seed
    )
    traffic = WorkloadRef(
        f"{pattern}@{load:.0%}",
        factory="repro.network.traffic:OfferedLoad",
        kwargs=tuple(sorted(offered.items())),
    )
    return executor.job(
        get_spec("GMN").with_(topology=topology),
        traffic,
        cfg,
        tag=f"{topology} {traffic.name}",
    )


def run(
    topologies: Sequence[str] = TOPOLOGIES,
    loads: Sequence[float] = LOADS,
    num_gpus: int = 4,
    packets_per_gpu: int = 400,
    seed: int = 5,
    pattern: str = "uniform",
    executor: Optional[SweepExecutor] = None,
) -> ExperimentResult:
    executor = executor or SweepExecutor()
    if executor.fidelity == "analytic":
        raise ConfigError(
            "the analytic tier has no network engine to drive; use "
            "--fidelity packet or flit"
        )
    result = ExperimentResult(
        "Ext: latency-load",
        f"Synthetic '{pattern}' traffic: average latency vs offered load",
        paper_note=(
            "methodology from [46]; explains the Fig. 16 ordering — sFBFLY "
            "has the flattest curve among sliced designs"
        ),
        experiment_id="ext-latency-load",
    )
    cfg = SystemConfig(num_gpus=num_gpus)
    jobs = [
        load_point(executor, topology, load, cfg, packets_per_gpu, seed, pattern)
        for topology in topologies
        for load in loads
    ]
    results = iter(run_jobs(jobs, executor, result))
    for topology in topologies:
        row = {"topology": topology}
        for load in loads:
            r = next(results)
            if r is not None:  # a failed point (keep-going) is reported
                row[f"lat@{load:.0%}"] = round(r.avg_net_latency_ps / 1e3, 1)
        result.add(**row)
    return result
