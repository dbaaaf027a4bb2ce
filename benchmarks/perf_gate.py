"""Speed gate: is HEAD_TREE more than 25% slower than BASE_TREE on a gated workload?

    python3 benchmarks/perf_gate.py BASE_TREE HEAD_TREE

Each tree is a checkout of this repository.  The gate runs each of the
repository benchmark's ``WORKLOADS`` (``perfbench/run.py --workload W
--trace 0``): fig14-packet for the event-engine tiers, contention-packet
for the flit engine, UGAL routing, the non-default vault schedulers and
the worker pool, and explore-analytic for the analytic tier.  Each runs in both trees,
``PAIRS`` times each, on the same seed within a pair, alternating which
tree runs first so that a drift in machine speed loads both sides alike.
It reads ``wall_s`` from the JSON line each run prints last and compares
each workload's medians.

Exit status: 0 when, on every workload, the head's median ``wall_s`` is at
most ``1 + THRESHOLD`` times the base's; 1 when any workload is slower
than that or when any run exits non-zero or reports ``"correct": false``;
and 2 on a usage error.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

#: The benchmark workloads the gate runs, each in its own pairs.
WORKLOADS = ("fig14-packet", "contention-packet", "explore-analytic")
#: Interleaved (base, head) run pairs per workload.
PAIRS = 3
#: Largest allowed slowdown of the head's median wall_s over the base's.
THRESHOLD = 0.25


def run_tree(tree: str, workload: str, seed: int):
    """One untraced run of ``workload`` in ``tree``: its wall_s, or the
    reason it cannot be counted."""
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines:
        return None, f"exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    record = json.loads(lines[-1])
    if not record.get("correct"):
        return None, "reported correct: false"
    return record["metrics"]["wall_s"]["value"], None


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: perf_gate.py BASE_TREE HEAD_TREE", file=sys.stderr)
        return 2
    trees = {"base": os.path.abspath(argv[0]), "head": os.path.abspath(argv[1])}
    status = 0
    for workload in WORKLOADS:
        walls = {"base": [], "head": []}
        for seed in range(1, PAIRS + 1):
            order = ("base", "head") if seed % 2 else ("head", "base")
            for side in order:
                wall, problem = run_tree(trees[side], workload, seed)
                if problem is not None:
                    print(f"FAIL: {workload} {side} run (seed {seed}) {problem}")
                    return 1
                print(f"{workload} seed {seed} {side}: wall_s {wall:.3f}", flush=True)
                walls[side].append(wall)
        base = statistics.median(walls["base"])
        head = statistics.median(walls["head"])
        ratio = head / base
        verdict = "FAIL" if ratio > 1 + THRESHOLD else "ok"
        print(
            f"{verdict}: {workload} median wall_s head {head:.3f} s / base "
            f"{base:.3f} s = {ratio:.3f} (limit {1 + THRESHOLD:.2f})"
        )
        if verdict == "FAIL":
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
