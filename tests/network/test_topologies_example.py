"""The topology worked example, ``examples/multi_gpu_topologies.py``: its
geometry printout for every topology it lists, pinned.

The channel counts are Fig. 12's (48 vs 24 at 4 GPUs), and sFBFLY and
sTORUS-2x share one bisection bandwidth (Section VI-B2).
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "multi_gpu_topologies.py"

#: name -> (channels, max degree, max GPU->HMC hops, avg hops, bisection GB/s).
PINNED = {
    "ddfly": (30, 6, 2, 1.31, 80),
    "dfbfly": (48, 8, 1, 0.75, 320),
    "sfbfly": (24, 5, 1, 0.75, 320),
    "smesh": (12, 4, 3, 1.25, 80),
    "storus": (16, 4, 2, 1.00, 160),
    "smesh-2x": (12, 4, 3, 1.25, 160),
    "storus-2x": (16, 4, 2, 1.00, 320),
}


def _example():
    spec = importlib.util.spec_from_file_location("multi_gpu_topologies", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_example_lists_the_pinned_topologies():
    assert sorted(_example().TOPOLOGIES) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_describe_prints_pinned_geometry(name, capsys):
    _example().describe(name)
    channels, degree, max_hops, avg_hops, bisection = PINNED[name]
    assert capsys.readouterr().out == (
        f"{name:10s} channels={channels:3d} max degree={degree}/8 "
        f"GPU->HMC hops: max={max_hops} avg={avg_hops:.2f}  "
        f"bisection={bisection:5.0f} GB/s\n"
    )
