"""Speed gate: is HEAD_TREE's fig14 sweep more than 25% slower than BASE_TREE's?

    python3 benchmarks/perf_gate.py BASE_TREE HEAD_TREE

Each tree is a checkout of this repository.  The gate runs the repository
benchmark's fig14-packet workload (``perfbench/run.py --workload
fig14-packet --trace 0``) in both trees, ``PAIRS`` times each, on the same
seed within a pair, and alternates which tree runs first so that a drift
in machine speed loads both sides alike.  It reads ``wall_s`` from the
JSON line each run prints last and compares the medians.

Exit status: 0 when the head's median ``wall_s`` is at most
``1 + THRESHOLD`` times the base's, 1 when it is slower than that or when
any run exits non-zero or reports ``"correct": false``, and 2 on a usage
error.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

#: Interleaved (base, head) run pairs.
PAIRS = 3
#: Largest allowed slowdown of the head's median wall_s over the base's.
THRESHOLD = 0.25


def run_tree(tree: str, seed: int):
    """One untraced fig14-packet run in ``tree``: its wall_s, or the
    reason it cannot be counted."""
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", "fig14-packet", "--seed", str(seed), "--trace", "0"],
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
    walls = {"base": [], "head": []}
    for seed in range(1, PAIRS + 1):
        order = ("base", "head") if seed % 2 else ("head", "base")
        for side in order:
            wall, problem = run_tree(trees[side], seed)
            if problem is not None:
                print(f"FAIL: {side} run (seed {seed}) {problem}")
                return 1
            print(f"seed {seed} {side}: wall_s {wall:.3f}", flush=True)
            walls[side].append(wall)
    base = statistics.median(walls["base"])
    head = statistics.median(walls["head"])
    ratio = head / base
    verdict = "FAIL" if ratio > 1 + THRESHOLD else "ok"
    print(
        f"{verdict}: median wall_s head {head:.3f} s / base {base:.3f} s "
        f"= {ratio:.3f} (limit {1 + THRESHOLD:.2f})"
    )
    return 1 if verdict == "FAIL" else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
