"""The per-layer ledger: shims around each layer's public callables, the
event-loop profiler, and the arithmetic that turns both into layer times.

Stack layers are timed by :class:`Shims`, which wraps the callables in
:data:`TARGETS` for the length of a traced pass and puts the originals
back afterwards; ``src/`` is never edited.  Simulator layers are timed by
the program's own :class:`~repro.obs.profiler.EventLoopProfiler`, bound
to every system the builder makes through the public
``Observability(profile=True)``.  Pool workers are forked with the shims
in place; each one writes its ledger to a file after every job, and the
parent merges the files.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from benchlib import median, sim_record

#: (module, class or None, attribute, span name) of every shimmed callable.
TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.system.spec", "WorkloadRef", "build", "system.spec.build"),
    ("repro.system.spec", "SystemSpec", "from_dict", "system.spec.from_dict"),
    ("repro.system.spec", "SystemSpec", "run", "system.spec.run"),
    ("repro.system.builder", "MultiGPUSystem", "__init__", "system.builder"),
    ("repro.sim.engine", "Simulator", "run", "sim.run"),
    ("repro.analytic", None, "analytic_run", "analytic.run"),
    ("repro.analytic.model", None, "profile_workload", "analytic.profile"),
    ("repro.exec.cache", "ResultCache", "get", "exec.cache.get"),
    ("repro.exec.cache", "ResultCache", "put", "exec.cache.put"),
    ("repro.exec.executor", None, "predict_costs", "exec.planner.predict"),
    ("repro.exec.executor", None, "lpt_order", "exec.planner.order"),
)

#: Callback module prefix -> simulator layer, first match wins.  ``repro.core``
#: (CTA scheduling, page tables) is charged to the GPU layer.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.network.flitnet", "network.flitnet"),
    ("repro.network", "network"),
    ("repro.hmc", "hmc"),
    ("repro.gpu", "gpu"),
    ("repro.core", "gpu"),
    ("repro.system.fabric", "system.fabric"),
    ("repro.pcie", "pcie"),
    ("repro.pcn", "pcn"),
    ("repro.cpu", "cpu"),
)
SIM_LAYERS = ("network", "network.flitnet", "hmc", "gpu", "system.fabric", "pcie", "pcn", "cpu", "other")


class Ledger:
    """Spans recorded by the shims plus one event-loop profiler.

    ``spans`` maps a span name to ``[calls, inclusive seconds, self
    seconds]``; self time excludes nested shim spans on the same thread.
    Safe to use from several threads (the serve daemon's handler and
    dispatcher threads), and reset in a forked child so a worker starts
    from an empty ledger of its own.
    """

    def __init__(self, flush_dir: Optional[str] = None) -> None:
        #: Worker files are written only by processes other than this one.
        self.flush_dir = flush_dir
        self._owner = os.getpid()
        self._fresh()
        os.register_at_fork(after_in_child=self._fresh)

    def _fresh(self) -> None:
        from repro.obs.bind import Observability

        self.spans: Dict[str, List[float]] = {}
        self.cache_hits = 0
        self.sim_records: List[Dict[str, Any]] = []
        self.obs = Observability(profile=True)
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------
    def timed(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        stack = self._local.__dict__.setdefault("stack", [])
        stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            total = time.perf_counter() - start
            child = stack.pop()
            if stack:
                stack[-1] += total
            with self._lock:
                slot = self.spans.setdefault(name, [0, 0.0, 0.0])
                slot[0] += 1
                slot[1] += total
                slot[2] += total - child

    def after(self, name: str, args: tuple, result: Any) -> None:
        """Per-span side effects, run after the wrapped call returns."""
        if name == "system.builder":
            system = args[0]
            if system.sim.profiler is None:
                self.obs.bind(system)
        elif name == "exec.cache.get":
            if result is not None:
                with self._lock:
                    self.cache_hits += 1
        elif name == "system.spec.run":
            if result.events_executed > 0:
                with self._lock:
                    self.sim_records.append(sim_record(result))
            if self.flush_dir is not None and os.getpid() != self._owner:
                self.dump()

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        profiler = self.obs.profiler
        with self._lock:
            return {
                "spans": {k: list(v) for k, v in self.spans.items()},
                "cache_hits": self.cache_hits,
                "sim_records": list(self.sim_records),
                "profiler": {
                    "events": profiler.events,
                    "wall_s": profiler.wall_s,
                    "by_module": {k: list(v) for k, v in profiler.by_module.items()},
                },
            }

    def dump(self) -> None:
        """Write this process's ledger to ``flush_dir`` (atomic replace)."""
        path = os.path.join(self.flush_dir, f"ledger-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(self.to_dict(), handle)
        os.replace(tmp, path)


def merge(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum ledger dicts (from this process and from worker files)."""
    total: Dict[str, Any] = {
        "spans": {},
        "cache_hits": 0,
        "sim_records": [],
        "profiler": {"events": 0, "wall_s": 0.0, "by_module": {}},
    }
    for part in parts:
        for name, (calls, incl, self_s) in part["spans"].items():
            slot = total["spans"].setdefault(name, [0, 0.0, 0.0])
            slot[0] += calls
            slot[1] += incl
            slot[2] += self_s
        total["cache_hits"] += part["cache_hits"]
        total["sim_records"].extend(part["sim_records"])
        prof = total["profiler"]
        prof["events"] += part["profiler"]["events"]
        prof["wall_s"] += part["profiler"]["wall_s"]
        for module, (count, secs) in part["profiler"]["by_module"].items():
            slot = prof["by_module"].setdefault(module, [0, 0.0])
            slot[0] += count
            slot[1] += secs
    return total


def load_dir(path: str) -> List[Dict[str, Any]]:
    parts = []
    for name in sorted(glob.glob(os.path.join(path, "ledger-*.json"))):
        with open(name) as handle:
            parts.append(json.load(handle))
    return parts


# ----------------------------------------------------------------------
# Shims
# ----------------------------------------------------------------------
class Shims:
    """Installs timing wrappers on :data:`TARGETS`; :meth:`restore` puts
    back the exact objects it replaced, so nothing traced outlives the
    traced pass."""

    def __init__(self, ledger: Ledger, targets=TARGETS) -> None:
        self.ledger = ledger
        self.targets = targets
        self._saved: List[Tuple[Any, str, Any]] = []

    def install(self) -> "Shims":
        if self._saved:
            raise RuntimeError("shims are already installed")
        for module_name, owner_name, attr, name in self.targets:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Shims":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, original: Any, name: str) -> Any:
        ledger = self.ledger
        if isinstance(original, classmethod):
            return classmethod(self._wrap(original.__func__, name))
        fn = original

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            result = ledger.timed(name, fn, args, kwargs)
            ledger.after(name, args, result)
            return result

        return shim


# ----------------------------------------------------------------------
# Profiler self-cost
# ----------------------------------------------------------------------
def _noop(_arg) -> None:
    return None


def calibrate_profiler(events: int = 100_000, repeats: int = 5) -> Dict[str, float]:
    """Measure :class:`EventLoopProfiler`'s own cost per event.

    No-op events run through a public ``Simulator`` with and without a
    profiler, in the same bounded ``run(max_events=...)`` form the
    watchdog uses.  ``total_s`` is the whole per-event difference;
    ``inside_s`` is the part the profiler charges to the callback's module
    (its recorded time per no-op minus a bare call of the no-op).
    """
    from repro.obs.profiler import EventLoopProfiler
    from repro.sim.engine import Simulator

    callback = functools.partial(_noop, None)

    def drain(profiler) -> float:
        sim = Simulator()
        sim.profiler = profiler
        for t in range(events):
            sim.at(t, callback)
        start = time.perf_counter()
        sim.run(max_events=events + 1)
        return time.perf_counter() - start

    def bare_calls() -> float:
        calls = [callback] * events
        start = time.perf_counter()
        for fn in calls:
            fn()
        mid = time.perf_counter()
        for fn in calls:
            pass
        return (mid - start) - (time.perf_counter() - mid)

    # Plain and profiled drains alternate, so a drift in machine speed
    # hits both sides of each difference alike.
    extra, inside = [], []
    for _ in range(repeats):
        plain = drain(None)
        profiler = EventLoopProfiler()
        extra.append(drain(profiler) - plain)
        inside.append(profiler.wall_s - bare_calls())
    total = max(0.0, median(extra) / events)
    return {"total_s": total, "inside_s": min(total, max(0.0, median(inside) / events))}


# ----------------------------------------------------------------------
# Ledger -> per-layer metrics
# ----------------------------------------------------------------------
def layer_of(module: str) -> str:
    for prefix, layer in LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def layer_metrics(ledger: Dict[str, Any], cost: Dict[str, float]) -> Dict[str, float]:
    """Per-layer times and counts from a merged ledger.

    Each simulator layer's time is its callbacks' recorded time minus
    ``events x cost["inside_s"]``; engine dispatch is the time inside
    ``Simulator.run`` not spent in callbacks, minus the profiler's
    bookkeeping outside the callback bracket.
    """
    spans = ledger["spans"]

    def calls(name: str) -> int:
        return int(spans.get(name, [0, 0.0, 0.0])[0])

    def incl(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[2]

    inside, total = cost["inside_s"], cost["total_s"]
    prof = ledger["profiler"]
    layers = {layer: [0, 0.0] for layer in SIM_LAYERS}
    for module, (count, secs) in prof["by_module"].items():
        slot = layers[layer_of(module)]
        slot[0] += count
        slot[1] += max(0.0, secs - count * inside)
    dispatch = incl("sim.run") - prof["wall_s"] - prof["events"] * (total - inside)

    gets = calls("exec.cache.get")
    metrics = {
        "system.spec.build_s": incl("system.spec.build") + incl("system.spec.from_dict"),
        "system.spec.count": float(calls("system.spec.build") + calls("system.spec.from_dict")),
        "system.builder.s": incl("system.builder"),
        "system.builder.count": float(calls("system.builder")),
        "sim.dispatch_s": max(0.0, dispatch),
        "analytic.profile_s": incl("analytic.profile"),
        "analytic.run_s": self_s("analytic.run"),
        "analytic.count": float(calls("analytic.run")),
        "exec.cache.get_s": incl("exec.cache.get"),
        "exec.cache.put_s": incl("exec.cache.put"),
        "exec.cache.hit_ratio": ledger["cache_hits"] / gets if gets else 0.0,
        "exec.planner.plan_s": incl("exec.planner.predict") + incl("exec.planner.order"),
    }
    for layer, (count, secs) in layers.items():
        prefix = "sim.other" if layer == "other" else layer
        metrics[f"{prefix}.s"] = secs
        metrics[f"{prefix}.events"] = float(count)
    return metrics
