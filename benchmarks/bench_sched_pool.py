"""Warm-pool + LPT scheduling benchmark: multi-experiment A/B.

`repro all --jobs N` used to pay one process-pool spawn per experiment
and submitted cache misses in FIFO order.  This benchmark runs the same
two-experiment slice (fig14 + fig16, reduced scale) both ways:

- **cold-fifo**: pool torn down and respawned per experiment,
  submission-order scheduling (the pre-planner behavior);
- **warm-lpt**: one shared pool across both experiments,
  longest-predicted-first submission (the current default).

Rows must be identical between the modes — scheduling is observational —
and the warm mode must spawn exactly one pool where the cold mode spawns
one per experiment.  The wall-clock delta is printed (run pytest with
``-s``); on a 1-core container the saving is mostly the avoided fork +
worker warm-up, on a multi-core host LPT also trims the straggler tail.
"""

import time

from repro.exec import SweepExecutor, pool_spawns, shutdown_pool
from repro.experiments import fig14_organizations, fig16_fig17_topologies

SCALE = 0.1
JOBS = 2


def _run_pair(schedule, cold):
    """Run fig14 + fig16; return (wall_s, rows, pool spawns used)."""
    shutdown_pool()
    before = pool_spawns()
    rows = []
    start = time.perf_counter()
    for experiment in (fig14_organizations, fig16_fig17_topologies):
        if cold:
            shutdown_pool()
        result = experiment.run(
            scale=SCALE, executor=SweepExecutor(jobs=JOBS, schedule=schedule)
        )
        rows.append(result.rows)
    wall = time.perf_counter() - start
    spawns = pool_spawns() - before
    shutdown_pool()
    return wall, rows, spawns


def test_sched_pool_delta(benchmark):
    cold_wall, cold_rows, cold_spawns = _run_pair("fifo", cold=True)

    def warm():
        return _run_pair("lpt", cold=False)

    warm_wall, warm_rows, warm_spawns = benchmark.pedantic(
        warm, rounds=1, iterations=1, warmup_rounds=0
    )

    # Scheduling and pool reuse are observational: identical rows.
    assert warm_rows == cold_rows
    # The warm mode shares one pool; the cold mode spawns per experiment.
    assert warm_spawns == 1
    assert cold_spawns == 2

    delta_pct = (cold_wall - warm_wall) / cold_wall * 100.0
    print()
    print(
        f"cold-fifo {cold_wall:.2f}s ({cold_spawns} pool spawns) vs "
        f"warm-lpt {warm_wall:.2f}s ({warm_spawns} pool spawn): "
        f"{delta_pct:+.1f}%"
    )
