"""Extension — sensitivity of the headline conclusions to model constants.

A reproduction built on a simplified simulator owes the reader an answer to
"would the conclusions change if your constants are off?".  This experiment
perturbs the most influential modeling parameters — SerDes latency, channel
bandwidth, vault queue depth, PCIe latency — by 2x in each direction and
re-measures two headline quantities:

- the UMN total-runtime speedup over PCIe (Fig. 14's message), and
- the sFBFLY-vs-sMESH kernel-time ratio (Fig. 16's message).

Both must stay on the same side of 1.0 for every perturbation; the table
shows by how much they move.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..config import SystemConfig
from ..exec import SweepExecutor, WorkloadRef
from ..system.configs import get_spec
from .common import ExperimentResult, run_jobs


def _specs():
    """The four runs every perturbation needs: Fig. 14's PCIe/UMN pair and
    Fig. 16's sMESH/sFBFLY pair."""
    return (
        get_spec("PCIe"),
        get_spec("UMN"),
        get_spec("GMN").with_(topology="smesh"),
        get_spec("GMN").with_(topology="sfbfly"),
    )


def _variants(base: SystemConfig):
    net = base.network
    yield "baseline", base
    for factor, tag in ((0.5, "x0.5"), (2.0, "x2")):
        yield f"serdes {tag}", dataclasses.replace(
            base, network=dataclasses.replace(net, serdes_ps=int(net.serdes_ps * factor))
        )
        yield f"channel bw {tag}", dataclasses.replace(
            base,
            network=dataclasses.replace(net, channel_gbps=net.channel_gbps * factor),
        )
        yield f"vault queue {tag}", dataclasses.replace(
            base,
            hmc=dataclasses.replace(
                base.hmc, vault_queue_entries=max(1, int(16 * factor))
            ),
        )
        yield f"pcie latency {tag}", dataclasses.replace(
            base, pcie=dataclasses.replace(base.pcie, latency_ps=int(base.pcie.latency_ps * factor))
        )


def run(
    workload: str = "BP",
    scale: float = 0.25,
    cfg: Optional[SystemConfig] = None,
    executor: Optional[SweepExecutor] = None,
) -> ExperimentResult:
    base = cfg or SystemConfig()
    executor = executor or SweepExecutor()
    result = ExperimentResult(
        "Ext: sensitivity",
        "Headline conclusions under 2x parameter perturbations",
        paper_note=(
            "robustness check: UMN > PCIe and sFBFLY > sMESH must survive "
            "every perturbation"
        ),
        experiment_id="ext-sensitivity",
    )
    variants = list(_variants(base))
    ref = WorkloadRef(workload, scale)
    jobs = [
        executor.job(spec, ref, variant)
        for _label, variant in variants
        for spec in _specs()
    ]
    results = iter(run_jobs(jobs, executor, result))
    for label, _variant in variants:
        pcie, umn, mesh, sfb = (next(results) for _ in range(4))
        if any(r is None for r in (pcie, umn, mesh, sfb)):
            continue  # failed point (keep-going); reported on result
        umn_speedup = (pcie.kernel_ps + pcie.memcpy_ps) / (umn.kernel_ps + umn.memcpy_ps)
        result.add(
            parameter=label,
            umn_speedup_vs_pcie=round(umn_speedup, 2),
            sfbfly_speedup_vs_smesh=round(mesh.kernel_ps / sfb.kernel_ps, 2),
        )
    if not result.complete or not result.rows:
        return result  # the flip check needs every perturbation's row
    baseline = result.rows[0]
    result.note(
        f"baseline: UMN {baseline['umn_speedup_vs_pcie']}x, "
        f"sFBFLY {baseline['sfbfly_speedup_vs_smesh']}x on {workload}"
    )
    flipped = [
        r["parameter"]
        for r in result.rows
        if r["umn_speedup_vs_pcie"] <= 1.0 or r["sfbfly_speedup_vs_smesh"] <= 1.0
    ]
    result.note(
        "no perturbation flips a conclusion" if not flipped
        else f"FLIPPED under: {flipped}"
    )
    return result
