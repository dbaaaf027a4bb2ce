"""Set-up probe: run as a fresh process, it prints ``ready <import_s>`` as
soon as a workload's first point could be submitted.

    python3 perfbench/probe.py fig14-packet

The parent times the probe from launch to that line (``setup_s``);
``import_s`` is the probe's own time to import the CLI's module graph.
The serve workload measures its set-up by launching the daemon instead.
"""

import os
import sys
import time

START = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

#: Two tiny packet points whose only purpose is to make a pool's workers
#: fork and import (about 10 ms of simulation each).
WARMUP_POINTS = (("UMN", "CP", 0.01), ("GMN", "CP", 0.01))


def warm_pool(workers: int) -> None:
    """Fork ``workers`` pool workers and run one tiny point on each."""
    from repro.exec import SweepExecutor
    from repro.experiments.common import job_for

    jobs = [job_for(arch, name, scale=scale) for arch, name, scale in WARMUP_POINTS]
    SweepExecutor(jobs=workers).map(jobs)


def main(workload: str) -> int:
    import repro.cli  # noqa: F401  (the module graph `repro <experiment>` loads)

    imported = time.perf_counter() - START
    if workload == "explore-analytic":
        from repro.analytic import load_calibration

        load_calibration()
    elif workload == "contention-packet":
        warm_pool(2)
    print(f"ready {imported:.6f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
