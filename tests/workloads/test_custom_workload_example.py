"""The public kernel API's worked example, ``examples/custom_workload.py``,
run end to end and pinned.

The example builds its workload only from ``Access``, ``Phase``,
``Kernel`` and the region helpers, so pinning its kernel time and event
count on a memory-network and a PCIe organization shows that a change to
those records moves neither what the simulator does nor when.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro import get_spec, run_workload

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "custom_workload.py"

#: arch -> (kernel_ps, events_executed) of the example's matvec workload.
PINNED = {
    "UMN": (7_716_444, 241_373),
    "PCIe": (67_414_959, 283_988),
}


def _example():
    spec = importlib.util.spec_from_file_location("custom_workload", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("arch", sorted(PINNED))
def test_matvec_example_is_pinned(arch):
    example = _example()
    workload = example.matvec_workload()
    kernel = workload.steps[0].kernel
    assert kernel.cta_program is example.matvec_cta
    assert kernel.num_ctas == example.NUM_CTAS
    result = run_workload(get_spec(arch), workload)
    assert (result.kernel_ps, result.events_executed) == PINNED[arch]
