"""Byte-identity of the network-only and concurrent-kernel extensions.

``tests/data/ext_rows.json`` holds the default-argument rows of
``ext-latency-load``, ``ext-flit`` and ``ext-concurrent``; a fresh run
must reproduce them exactly (floats compare equal after a JSON round
trip).  Regenerate only for a change that is meant to move these rows.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS

ROWS_PATH = Path(__file__).resolve().parent.parent / "data" / "ext_rows.json"
PINNED = json.loads(ROWS_PATH.read_text())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_default_rows_match_pinned(name):
    rows = EXPERIMENTS[name]().rows
    assert json.loads(json.dumps(rows)) == PINNED[name]
