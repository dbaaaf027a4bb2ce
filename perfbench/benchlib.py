"""Helpers shared by the benchmark's workloads: statistics, row digests,
process-tree memory, the pass loop, and child-process plumbing.

Nothing here imports ``repro``; the workloads do, after ``run.py`` has
put the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import heapq
import json
import math
import os
import statistics
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Scratch space for sockets, daemon logs and worker ledgers, inside the
#: checkout (the benchmark writes nowhere else); removed at exit.
RUN_ROOT = ".bench_run"

#: A percentile is reported only when at least this many samples lie
#: beyond it, so a tail figure never rests on a handful of points.
MIN_TAIL = 10


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail_ok(n: int, p: float) -> bool:
    """True when ``n`` samples leave at least :data:`MIN_TAIL` beyond the
    ``p``-th percentile (the median always qualifies once ``n >= 1``)."""
    if p <= 50:
        return n >= 1
    return n * (100.0 - p) / 100.0 >= MIN_TAIL


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile of ``values``.

    Raises ``ValueError`` when fewer than :data:`MIN_TAIL` samples lie
    beyond ``p``: the caller must gather more samples or report a lower
    percentile.
    """
    n = len(values)
    if not tail_ok(n, p):
        raise ValueError(
            f"p{p:g} of {n} samples has fewer than {MIN_TAIL} beyond it"
        )
    ordered = sorted(values)
    rank = (n - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def geomean(values: Sequence[float]) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def digest(obj: Any) -> str:
    """SHA-256 of ``obj``'s canonical JSON (sorted keys, no spaces).

    Floats serialize by ``repr``, so a digest changes exactly when a value
    changes in any digit, and rows that crossed a JSON socket hash the
    same as the in-process rows they came from.
    """
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def sim_record(result) -> Dict[str, Any]:
    """Everything a packet or flit run simulated, as one JSON-able dict:
    the public row plus the event count and per-class vault service."""
    record = dict(result.as_row())
    record["events"] = result.events_executed
    record["peak_pending"] = result.peak_pending_events
    record["delivered"] = result.net_delivered
    record["class_served"] = dict(sorted(result.class_served.items()))
    record["class_queue_wait_ps"] = dict(
        sorted(result.class_queue_wait_ps.items())
    )
    return record


def sim_counts(records: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer simulated counts over packet/flit ``sim_record``\\ s.

    Rates are weighted by the quantity they are a rate of, so the
    figures do not depend on the order runs finished in.
    """
    runs = [r for r in records if r.get("events", 0) > 0]
    delivered = sum(r["delivered"] for r in runs)
    served = sum(sum(r["class_served"].values()) for r in runs)
    requests = sum(r["memory_requests"] for r in runs)
    return {
        "sim.events": float(sum(r["events"] for r in runs)),
        "sim.peak_pending": float(max((r["peak_pending"] for r in runs), default=0)),
        "network.delivered": float(delivered),
        "network.avg_hops": (
            sum(r["avg_hops"] * r["delivered"] for r in runs) / delivered
            if delivered
            else 0.0
        ),
        "hmc.served": float(served),
        "hmc.row_hit_rate": (
            sum(r["hmc_row_hit"] * sum(r["class_served"].values()) for r in runs)
            / served
            if served
            else 0.0
        ),
        "hmc.queue_wait_ps.cpu": float(
            sum(r["class_queue_wait_ps"].get("cpu", 0) for r in runs)
        ),
        "hmc.queue_wait_ps.gpu": float(
            sum(r["class_queue_wait_ps"].get("gpu", 0) for r in runs)
        ),
        "gpu.memory_requests": float(requests),
        "gpu.l2_hit_rate": (
            sum(r["l2_hit"] * r["memory_requests"] for r in runs) / requests
            if requests
            else 0.0
        ),
    }


# ----------------------------------------------------------------------
# Host memory
# ----------------------------------------------------------------------
def _proc_tree(root: int) -> List[int]:
    """``root`` and every live descendant, from ``/proc/*/stat``."""
    children: Dict[int, List[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we looked
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(name))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, []))
    return tree


def tree_peak_rss_mb(root: int = 0) -> float:
    """Sum of each live process's peak resident set (``VmHWM``) over the
    tree rooted at ``root`` (default: this process): the benchmark, its
    pool workers, and for serve the daemon and the daemon's workers."""
    total_kb = 0
    for pid in _proc_tree(root or os.getpid()):
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# Machine speed
# ----------------------------------------------------------------------
class _Node:
    __slots__ = ("name", "busy", "queue")

    def __init__(self, name: int) -> None:
        self.name = name
        self.busy = False
        self.queue: List[int] = []


def reference_slice(events: int = 2000) -> None:
    """A fixed pure-Python event simulation (heap, partials, slotted
    objects, dicts): the same kind of work as the simulator, but code of
    the benchmark's own that no change to the program can speed up."""
    heap: List[Tuple[int, int, Callable[[], None]]] = []
    nodes = [_Node(i) for i in range(64)]
    served: Dict[int, int] = {}
    state = {"now": 0, "seq": 0}

    def push(delay: int, fn: Callable[[], None]) -> None:
        heapq.heappush(heap, (state["now"] + delay, state["seq"], fn))
        state["seq"] += 1

    def arrive(node: _Node, size: int) -> None:
        node.queue.append(size)
        if not node.busy:
            node.busy = True
            push(size, functools.partial(depart, node))

    def depart(node: _Node) -> None:
        size = node.queue.pop(0)
        node.busy = False
        served[node.name % 7] = served.get(node.name % 7, 0) + size
        push(3, functools.partial(arrive, nodes[(node.name * 31 + size) % 64], size * 7 % 13 + 1))
        if node.queue:
            node.busy = True
            push(node.queue[0], functools.partial(depart, node))

    for node in nodes:
        push(node.name, functools.partial(arrive, node, node.name % 13 + 1))
    for _ in range(events):
        state["now"], _, fn = heapq.heappop(heap)
        fn()


class MachineSpeed:
    """Tracks how fast this machine runs while a workload is measured.

    The host this benchmark was written on changes speed by up to 2x over
    seconds to minutes, in CPU time as much as in wall time, and each of
    its vCPUs on its own.  A
    :func:`reference_slice` timed right next to the measured work reads
    the same slowdown, so ``raw seconds / factor`` is the time the work
    would have taken at the nominal speed (where a slice takes
    ``NOMINAL_S``).  Slices run in blocks of ``BLOCK`` around a pass or a
    launch, and ``POINT_SLICES`` at a time inside a pass: on each side of
    one simulated point (``workloads.SlicedExecuteJob``) or after a chunk
    of analytic points.
    """

    #: Seconds one reference slice takes at the nominal speed.
    NOMINAL_S = 0.002
    BLOCK = 25
    POINT_SLICES = 3

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0

    def sample(self, count: int = 1) -> None:
        # The collector stays off during a slice, so a program that tunes
        # the collector does not change the yardstick it is measured by.
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                start = time.perf_counter()
                reference_slice()
                elapsed = time.perf_counter() - start
                self.samples.append(elapsed)
                self.spent += elapsed
        finally:
            if enabled:
                gc.enable()

    def block(self) -> None:
        self.sample(self.BLOCK)

    def factor(self, start: int, stop: "int | None" = None) -> float:
        """Slowdown over the nominal speed, from ``samples[start:stop]``
        (greater than 1 when the machine runs slow)."""
        window = self.samples[max(0, start) : stop]
        return sum(window) / len(window) / self.NOMINAL_S


def timed_passes(
    run_pass: Callable[[int], Any],
    seconds: float,
    min_passes: int = 1,
    speed: "MachineSpeed | None" = None,
) -> Tuple[List[float], List[Any], List[float]]:
    """Run ``run_pass(i)`` until another pass would overrun ``seconds``.

    At least ``min_passes`` passes run; the next pass starts only if the
    elapsed time plus the median pass so far fits in ``seconds``.  With a
    ``speed`` tracker, a block of reference slices runs before the first
    pass and after each pass; a pass's wall leaves out the slices taken
    inside it (by ``run_pass``, on the same tracker), and its slowdown
    factor comes from the blocks on both sides and the slices inside.
    Returns (pass walls, pass outputs, pass slowdown factors; 1.0 without
    a tracker).  Every output is kept, so ``run_pass`` should return only
    what the caller reads.
    """
    walls: List[float] = []
    outputs: List[Any] = []
    factors: List[float] = []
    start = time.perf_counter()
    if speed is not None:
        speed.block()
    while True:
        since = len(speed.samples) - MachineSpeed.BLOCK if speed else 0
        spent = speed.spent if speed else 0.0
        t0 = time.perf_counter()
        outputs.append(run_pass(len(walls)))
        walls.append(time.perf_counter() - t0 - (speed.spent - spent if speed else 0.0))
        if speed is not None:
            speed.block()
            factors.append(speed.factor(since))
        else:
            factors.append(1.0)
        elapsed = time.perf_counter() - start
        if len(walls) >= min_passes and elapsed + median(walls) > seconds:
            break
    return walls, outputs, factors


def nominal_wall(
    run: Callable[[], Any], speed: "MachineSpeed | None" = None
) -> Tuple[float, Any]:
    """(``run()``'s wall at nominal machine speed, its output), from a
    block of reference slices before and after it and any that ``run``
    takes on ``speed``."""
    walls, outputs, factors = timed_passes(lambda i: run(), 0.0, speed=speed or MachineSpeed())
    return walls[0] / factors[0], outputs[0]


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
#: Environment variables that would change what the program does (worker
#: count, cache, calibration artifact, socket); the benchmark clears them
#: so its inputs are only the specs it generates.
PROGRAM_ENV = (
    "REPRO_JOBS",
    "REPRO_CACHE_DIR",
    "REPRO_CACHE_MAX_MB",
    "REPRO_CALIBRATION",
    "REPRO_SERVE_SOCKET",
)


def clear_program_env() -> None:
    for name in PROGRAM_ENV:
        os.environ.pop(name, None)


def child_env() -> Dict[str, str]:
    """Environment for benchmark children: this checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for name in PROGRAM_ENV:
        env.pop(name, None)
    return env


def python() -> str:
    return sys.executable or "python3"
