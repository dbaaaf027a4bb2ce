"""Regenerate reference.json, the row digests the output checks compare
against.  Run it only on a commit whose simulated rows are known good:

    python3 perfbench/make_reference.py

``contention-packet`` is one digest over the sorted (label, simulated
record) pairs of the whole job set; ``serve-packet`` maps each label of
the small packet catalogue to the first 16 hex digits of its row digest.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from benchlib import SRC, clear_program_env, digest, sim_record  # noqa: E402

sys.path.insert(0, SRC)
clear_program_env()

from repro.exec import SweepExecutor, SweepJob, shutdown_pool  # noqa: E402
from repro.system.spec import SystemSpec  # noqa: E402
from serve_mixed import packet_catalogue  # noqa: E402
from workloads import REFERENCE_PATH, WORKERS, contention_jobs  # noqa: E402


def main() -> int:
    executor = SweepExecutor(jobs=WORKERS)
    try:
        jobs = contention_jobs(seed=0)
        records = [
            (job.label, sim_record(result))
            for job, result in zip(jobs, executor.map(jobs))
        ]
        catalogue = packet_catalogue()
        packets = executor.map(
            [SweepJob(SystemSpec.from_dict(spec)) for _, spec in catalogue]
        )
    finally:
        shutdown_pool()
    payload = {
        "contention-packet": digest(sorted(records)),
        "serve-packet": {
            label: digest(result.as_row())[:16]
            for (label, _), result in zip(catalogue, packets)
        },
    }
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFERENCE_PATH}: {len(payload['serve-packet'])} packet rows")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
