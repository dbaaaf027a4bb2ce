"""Every paper claim on fresh default sweeps.

Each experiment that owns claims (``repro.experiments.claims``) runs once
with its default arguments; its table and claim verdicts are printed (run
with ``-s``) and every verdict must hold — none may be ``n/a``, since a
default sweep fills every grid a claim reads.  Fig. 17's claims read the
Fig. 16 sweep, so that sweep runs once for both figures.  Claims whose
rows are committed are also checked in tier-1 by
``tests/experiments/test_claims.py``.
"""

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.claims import evaluate

BENCHED = (
    "fig7",
    "fig10",
    "fig12",
    "fig14",
    "fig15",
    "fig16",
    "fig18",
    "fig19",
    "sec3b",
    "ext-mapping",
    "ext-concurrent",
    "ext-latency-load",
    "ext-pcn",
    "ext-flit",
    "ext-sensitivity",
)


@pytest.mark.parametrize("experiment", BENCHED)
def test_claims_hold(benchmark, experiment):
    result = benchmark.pedantic(
        EXPERIMENTS[experiment], rounds=1, iterations=1, warmup_rounds=0
    )
    print()
    print(result.render())

    verdicts = evaluate(experiment, result.rows)
    assert verdicts
    assert all(v.holds for v in verdicts), [
        v.render() for v in verdicts if not v.holds
    ]
