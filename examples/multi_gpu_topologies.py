#!/usr/bin/env python
"""Explore memory-network topologies: geometry and performance.

Builds every topology the paper evaluates (Fig. 11 / Fig. 16), prints its
structural properties (channels, router degrees, GPU-to-HMC distances),
then runs a memory-bound workload over each on the GPU memory network and
reports runtime, hop count, and network energy.

Usage::

    python examples/multi_gpu_topologies.py [workload] [scale]
"""

import sys

from repro import SystemConfig, get_spec, get_workload, run_workload
from repro.network.metrics import topology_metrics
from repro.network.topologies import build_topology

TOPOLOGIES = ["ddfly", "dfbfly", "sfbfly", "smesh", "storus", "smesh-2x", "storus-2x"]


def describe(name: str, num_gpus: int = 4) -> None:
    topo = build_topology(name, SystemConfig(num_gpus=num_gpus))
    m = topology_metrics(topo)
    degrees = [topo.router_degree(r) for r in range(topo.num_routers)]
    print(
        f"{name:10s} channels={m.bidirectional_channels:3d} "
        f"max degree={max(degrees)}/8 "
        f"GPU->HMC hops: max={m.max_gpu_to_hmc_hops} "
        f"avg={m.avg_gpu_to_hmc_hops:.2f}  "
        f"bisection={m.bisection_gbps:5.0f} GB/s"
    )


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "BP"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.25

    print("=== Topology geometry (4 GPUs, 16 HMCs) ===")
    for name in TOPOLOGIES:
        describe(name)

    print(f"\n=== {workload} on the GPU memory network (GMN) ===")
    header = f"{'topology':10s} {'kernel':>10s} {'avg hops':>9s} {'energy':>10s}"
    print(header)
    print("-" * len(header))
    for name in TOPOLOGIES:
        spec = get_spec("GMN").with_(topology=name)
        r = run_workload(spec, get_workload(workload, scale))
        print(
            f"{name:10s} {r.kernel_ps / 1e6:9.2f}us {r.avg_hops:9.2f} "
            f"{r.energy.total_uj:8.1f}uJ"
        )
    print("\nsFBFLY removes intra-cluster channels (half the channels of "
          "dFBFLY) yet keeps the same minimal GPU->HMC routes — Section V-B.")


if __name__ == "__main__":
    main()
