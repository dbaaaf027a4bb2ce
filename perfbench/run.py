"""The repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fig14-packet --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn

One workload prints each metric as ``name = value unit`` and, as its last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  It exits 1 when an output check fails and 2 when the
program's sources are missing.  ``--workload all`` runs each workload in
its own process and exits non-zero if any of them does.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from benchlib import ROOT, RUN_ROOT, SRC, clear_program_env, python  # noqa: E402

WORKLOADS = ("fig14-packet", "contention-packet", "explore-analytic", "serve-mixed")


def run_one(args) -> int:
    sys.path.insert(0, SRC)
    clear_program_env()
    import repro
    import workloads

    if not repro.__file__.startswith(SRC + os.sep):
        print("error: imported repro from outside this checkout", file=sys.stderr)
        return 2
    run_dir = os.path.join(RUN_ROOT, str(os.getpid()))
    os.makedirs(run_dir)
    try:
        report = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUN_ROOT)
        except OSError:
            pass  # another run still uses it
    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    values = report.per_layer if args.trace else report.end_to_end
    for problem in report.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    for name, value in report.raw.items():
        print(f"{name} at host speed = {value:.6g} {units[name]}")
    correct = not report.problems and report.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process; every metric, then a verdict."""
    worst = 0
    for name in WORKLOADS:
        cmd = [
            python(), os.path.join(HERE, "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        for line in lines[:-1]:
            print(f"   {line}")
        result = json.loads(lines[-1]) if lines else {}
        print(
            f"   correct={result.get('correct')} attempted={result.get('attempted')} "
            f"failed={result.get('failed')}",
            flush=True,
        )
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
