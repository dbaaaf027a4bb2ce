"""benchmarks/perf_gate.py against stub trees: no simulation runs.

Each stub tree's ``perfbench/run.py`` logs its call next to the trees and
prints one fixed JSON line, so the gate's verdict, failure handling and
run order are checked in milliseconds.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GATE = Path(__file__).resolve().parents[1] / "benchmarks" / "perf_gate.py"
WORKLOADS = ("fig14-packet", "contention-packet", "explore-analytic")

STUB = '''\
import json, os, sys
tree = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
seed = sys.argv[sys.argv.index("--seed") + 1]
workload = sys.argv[sys.argv.index("--workload") + 1]
with open(os.path.join(os.path.dirname(tree), "calls.log"), "a") as log:
    log.write(f"{os.path.basename(tree)} {workload} {seed}\\n")
with open(os.path.join(tree, "stub.json")) as f:
    stub = json.load(f)
wall_s = stub["wall_s"].get(workload, 10.0)
print("wall_s = ignored")
print(json.dumps({"correct": stub["correct"],
                  "metrics": {"wall_s": {"value": wall_s, "unit": "s"}}}))
sys.exit(stub["exit"])
'''


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("perf_gate", GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_tree(root, name, wall_s=10.0, correct=True, exit=0):
    """A stub checkout; ``wall_s`` is one figure for every workload or a
    {workload: wall_s} map (10 s where absent)."""
    if not isinstance(wall_s, dict):
        wall_s = {workload: wall_s for workload in WORKLOADS}
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(STUB)
    (tree / "stub.json").write_text(
        json.dumps({"wall_s": wall_s, "correct": correct, "exit": exit})
    )
    return str(tree)


def test_equal_trees_pass(gate, tmp_path):
    base = make_tree(tmp_path, "base")
    head = make_tree(tmp_path, "head")
    assert gate.main([base, head]) == 0


def test_head_30_percent_slower_fails(gate, tmp_path):
    base = make_tree(tmp_path, "base", wall_s=10.0)
    head = make_tree(tmp_path, "head", wall_s=13.0)
    assert gate.main([base, head]) == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_slower_workload_fails(gate, tmp_path, capsys, workload):
    base = make_tree(tmp_path, "base")
    head = make_tree(tmp_path, "head", wall_s={workload: 13.0})
    assert gate.main([base, head]) == 1
    verdicts = [
        line for line in capsys.readouterr().out.splitlines() if "median" in line
    ]
    assert [line.split()[0] for line in verdicts] == [
        "FAIL:" if name == workload else "ok:" for name in WORKLOADS
    ]


@pytest.mark.parametrize(
    "broken", [{"correct": False}, {"exit": 1}], ids=["incorrect", "nonzero-exit"]
)
def test_a_bad_run_fails(gate, tmp_path, broken):
    base = make_tree(tmp_path, "base")
    head = make_tree(tmp_path, "head", **broken)
    assert gate.main([base, head]) == 1


def test_runs_alternate_which_tree_goes_first(gate, tmp_path):
    base = make_tree(tmp_path, "base")
    head = make_tree(tmp_path, "head")
    assert gate.main([base, head]) == 0
    calls = (tmp_path / "calls.log").read_text().splitlines()
    order = ["base 1", "head 1", "head 2", "base 2", "base 3", "head 3"]
    assert calls == [
        f"{tree} {workload} {seed}"
        for workload in WORKLOADS
        for tree, seed in (call.split() for call in order)
    ]
    assert len(calls) == 18


def test_usage_error_exits_2(gate, tmp_path, capsys):
    assert gate.main([str(tmp_path)]) == 2
    assert "usage" in capsys.readouterr().err
