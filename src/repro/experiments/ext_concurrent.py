"""Extension — concurrent kernel execution on the virtual GPU.

Section III of the paper: "SKE is not necessarily limited to a single
kernel but can also be extended to support concurrent kernel execution";
the authors leave it as future work.  Here it is: the virtual GPU in
``concurrent=True`` mode launches kernels like independent CUDA streams,
and the per-GPU CTA dispatcher interleaves their CTAs onto free SM slots.

The win shows exactly where the Fermi whitepaper said it would: kernels
that individually underfill the machine (few CTAs, e.g. CG.S-sized grids)
overlap; big kernels that saturate the SMs see no benefit (the SMs are the
conserved resource).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..config import SystemConfig
from ..exec import SweepExecutor
from ..system.builder import MultiGPUSystem
from ..core.virtual_gpu import VirtualGPU
from ..system.configs import get_spec
from ..workloads.suite import get_workload
from .common import ExperimentResult

#: (workload, scale) pairs: small grids that underfill 4 GPUs, and one
#: large saturating pair as the control.
DEFAULT_PAIRS: Sequence[Tuple[str, float, str, float]] = (
    ("CG.S", 1.0, "FT.S", 1.0),
    ("CG.S", 1.0, "CG.S", 1.0),
    ("BP", 1.0, "KMN", 1.0),
)


def _makespan(pair, cfg: SystemConfig, concurrent: bool, obs=None) -> int:
    name_a, scale_a, name_b, scale_b = pair
    system = MultiGPUSystem(get_spec("UMN"), cfg, obs=obs)
    system.install_page_table()
    vgpu = VirtualGPU(system.sim, system.gpus, concurrent=concurrent)
    kernels = (
        get_workload(name_a, scale_a).kernels + get_workload(name_b, scale_b).kernels
    )
    finished = []
    remaining = {"count": len(kernels)}

    def one_done() -> None:
        remaining["count"] -= 1
        if remaining["count"] == 0:
            finished.append(system.sim.now)

    for kernel in kernels:
        vgpu.launch(kernel, on_done=one_done)
    system.sim.run()
    assert finished, "kernels did not complete"
    return finished[0]


def run(
    pairs: Sequence[Tuple[str, float, str, float]] = DEFAULT_PAIRS,
    cfg: Optional[SystemConfig] = None,
    executor: Optional[SweepExecutor] = None,
) -> ExperimentResult:
    """The makespans are simulated here, not swept; of the executor only
    its ``obs`` bundle applies (the CLI's ``--trace``/``--profile``)."""
    cfg = cfg or SystemConfig()
    obs = executor.obs if executor is not None else None
    result = ExperimentResult(
        "Ext: concurrent",
        "Sequential vs concurrent kernel execution (extension; Section III "
        "future work)",
        paper_note="the paper defers concurrent kernel execution to future work",
    )
    for pair in pairs:
        seq = _makespan(pair, cfg, concurrent=False, obs=obs)
        con = _makespan(pair, cfg, concurrent=True, obs=obs)
        result.add(
            kernels=f"{pair[0]}+{pair[2]}",
            sequential_us=seq / 1e6,
            concurrent_us=con / 1e6,
            overlap_speedup=round(seq / con, 2),
        )
    result.note(
        "small grids overlap and speed up; SM-saturating kernel pairs are "
        "bound by total compute and see ~1.0x"
    )
    return result
