"""serve-mixed: a `repro serve` daemon driven over two connections.

The client replays a seeded script of single-spec submissions in three
classes: ``hit`` (a resubmit of a spec that completed in the previous
script, answered from the daemon's cache), ``analytic`` (a fresh analytic
spec, run inline by the dispatcher) and ``packet`` (a fresh small packet
spec, run on the daemon's pool).  Both connections are closed loops: each
sends its next request when the previous one's stream has ended.
"""

from __future__ import annotations

import os
import random
import subprocess
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from benchlib import (
    HERE,
    ROOT,
    child_env,
    digest,
    geomean,
    median,
    nominal_wall,
    percentile,
    python,
    tree_peak_rss_mb,
)
from ledger import calibrate_profiler, load_dir, merge
from workloads import (
    SERVE_CLASSES,
    SETUP_REPEATS,
    WORKERS,
    Report,
    analytic_catalogue,
    busy_factor,
    probe_setup,
    read_point_speeds,
    reference,
    report_end_to_end,
    report_layers,
    timed_setups,
)

from repro.exec.jobs import SweepJob, execute_job
from repro.serve.client import ServeClient
from repro.serve.protocol import ProtocolError, ServeAddress
from repro.system.configs import EXTENSION_ARCHS, TABLE_III
from repro.system.spec import SystemSpec, WorkloadRef
from repro.workloads.suite import WORKLOAD_NAMES

#: The packet scales are an assumption of the benchmark: docs/serving.md
#: submits at `repro run`'s default scale (0.25), which would make one
#: script of 56 packet specs take most of a run; at 0.03-0.06 a packet
#: spec takes tens of milliseconds.
PACKET_SCALES = (0.03, 0.04, 0.05, 0.06)
#: Every script holds one fresh request per fresh class for each
#: (workload, scale) stratum, so scripts cost alike.  A traced run replays
#: MIN_SCRIPTS measured scripts, so each class's p90 has >= 10 samples
#: beyond it; an untraced run replays RUN_SCRIPTS, however fast the
#: machine runs, so every run measures the same scripts.
CLASS_SIZE = len(WORKLOAD_NAMES) * len(PACKET_SCALES)
MIN_SCRIPTS = 3
RUN_SCRIPTS = 6
CONNECTIONS = 2
REQUEST_TIMEOUT_S = 120.0
LAUNCHER = os.path.join(HERE, "serve_launcher.py")

Request = Tuple[str, str, Dict[str, Any]]  # (class, label, spec dict)


def packet_catalogue() -> List[Tuple[str, Dict[str, Any]]]:
    """Small packet specs: every Table II workload on every Table III and
    extension organization at a few small scales (tens of ms each)."""
    archs = list(TABLE_III.values()) + list(EXTENSION_ARCHS.values())
    return [
        (f"{name}@{arch.name}/{scale}", SystemSpec.make(arch, WorkloadRef(name, scale)).to_dict())
        for name in WORKLOAD_NAMES
        for arch in archs
        for scale in PACKET_SCALES
    ]


def _strata(catalogue, rng: random.Random) -> List[List[Tuple[str, Dict[str, Any]]]]:
    """Catalogue entries grouped by (workload, scale), each group shuffled."""
    groups: Dict[Tuple[str, float], List[Tuple[str, Dict[str, Any]]]] = {}
    for label, spec in catalogue:
        key = (spec["workload"]["name"], spec["workload"]["scale"])
        groups.setdefault(key, []).append((label, spec))
    strata = [groups[key] for key in sorted(groups)]
    for members in strata:
        rng.shuffle(members)
    return strata


def make_scripts(seed: int) -> List[List[Request]]:
    """Script 0 warms the daemon (fresh specs only, not measured).  Script
    k takes the k-th (seeded) member of every stratum, so it sees each
    workload at each scale once per fresh class, and resubmits every fresh
    spec of script k-1 once: the submit-then-resubmit flow of
    docs/serving.md, one hit per fresh spec.  So a measured script holds
    CLASS_SIZE packet, CLASS_SIZE analytic and 2 x CLASS_SIZE hit requests;
    the equal packet and analytic counts are the benchmark's assumption."""
    rng = random.Random(seed)
    packets = _strata(packet_catalogue(), rng)
    analytics = _strata(analytic_catalogue(), rng)
    scripts: List[List[Request]] = []
    previous: List[Tuple[str, Dict[str, Any]]] = []
    for k in range(len(packets[0])):
        fresh_packets = [stratum[k] for stratum in packets]
        fresh_analytics = [stratum[k] for stratum in analytics]
        script = [("packet", label, spec) for label, spec in fresh_packets]
        script += [("analytic", label, spec) for label, spec in fresh_analytics]
        script += [("hit", label, spec) for label, spec in previous]
        rng.shuffle(script)
        scripts.append(script)
        previous = fresh_packets + fresh_analytics
    return scripts


# ----------------------------------------------------------------------
# Daemon and client
# ----------------------------------------------------------------------
class Daemon:
    """One `repro serve` process on a Unix socket under the run directory,
    plain or (with ``launcher``, e.g. ``["--speed", DIR]``) through
    serve_launcher.py."""

    def __init__(self, run_dir: str, tag: str, launcher: Sequence[str] = ()) -> None:
        self.socket = os.path.join(run_dir, f"{tag}.sock")
        serve = ["serve", "--socket", self.socket, "--jobs", str(WORKERS)]
        if launcher:
            cmd = [python(), LAUNCHER, *launcher, *serve]
        else:
            cmd = [python(), "-m", "repro", *serve]
        self.address = ServeAddress(socket_path=self.socket)
        self._log = open(os.path.join(run_dir, f"{tag}.log"), "w")
        self.proc = subprocess.Popen(
            cmd, stdout=self._log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT
        )

    def wait_ready(self, timeout_s: float = 120.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.proc.returncode}")
            try:
                if ServeClient(self.address, timeout=5.0).ping().get("event") == "pong":
                    return
            except (OSError, ProtocolError):
                time.sleep(0.005)
        raise RuntimeError("repro serve did not answer ping")

    def stop(self) -> None:
        try:
            if self.proc.poll() is None:
                try:
                    ServeClient(self.address, timeout=10.0).shutdown()
                except (OSError, ProtocolError):
                    pass
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=30)
        finally:
            self._log.close()

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def submit_one(address: ServeAddress, request: Request) -> Dict[str, Any]:
    """Send one single-spec submission; time every stream event from send."""
    cls, label, spec = request
    record: Dict[str, Any] = {"class": cls, "label": label, "error": None, "stamps": {}}
    start = time.perf_counter()
    try:
        client = ServeClient(address, timeout=REQUEST_TIMEOUT_S)
        for event in client.submit([spec], client="perfbench", tags=[label]):
            kind = event.get("event")
            record["stamps"].setdefault(kind, time.perf_counter() - start)
            if kind == "completed":
                record["row"] = event["row"]
                record["source"] = event.get("source")
                record["wall_s"] = event.get("wall_s") or 0.0
            elif kind in ("failed", "error", "cancelled"):
                record["error"] = f"{kind}: {event.get('message', '')}"
    except (OSError, ProtocolError) as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
    if "end" not in record["stamps"] and record["error"] is None:
        record["error"] = "stream ended without an end event"
    record["latency_s"] = record["stamps"].get("end", time.perf_counter() - start)
    return record


def run_script(address: ServeAddress, script: Sequence[Request]) -> List[Dict[str, Any]]:
    """Replay ``script`` over CONNECTIONS closed-loop connections."""
    records: List[Optional[Dict[str, Any]]] = [None] * len(script)
    pending = iter(enumerate(script))
    lock = threading.Lock()

    def connection() -> None:
        while True:
            with lock:
                item = next(pending, None)
            if item is None:
                return
            index, request = item
            records[index] = submit_one(address, request)

    threads = [threading.Thread(target=connection) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=len(script) * REQUEST_TIMEOUT_S)
        if thread.is_alive():
            raise RuntimeError("serve client connection did not finish")
    return records  # type: ignore[return-value]


def session(
    daemon: Daemon,
    scripts: Sequence[Sequence[Request]],
    count: int,
    speed_dir: Optional[str] = None,
):
    """Warm the daemon with script 0, then replay the next ``count``
    scripts.  Returns ((script wall, slowdown factor) per script, records
    of each measured script, warm-up records).

    With ``speed_dir``, the daemon (started with ``--speed speed_dir``)
    runs each packet point between reference slices in its worker; a
    script's wall and its packet records' ``latency_s`` then leave out
    the slices, and its factor is the busy-time weighted slowdown of the
    script's packet points, also stored in each record as ``factor``.
    Without it every factor is 1.
    """
    warmup = run_script(daemon.address, scripts[0])
    if speed_dir is not None:
        read_point_speeds(speed_dir)  # the warm-up script's
    walls, outputs = [], []
    for script in scripts[1 : count + 1]:
        start = time.perf_counter()
        records = run_script(daemon.address, script)
        wall, factor = time.perf_counter() - start, 1.0
        if speed_dir is not None:
            lines = read_point_speeds(speed_dir)
            factor = busy_factor(lines)
            spent = sum(x["spent"] for x in lines)
            wall -= spent / WORKERS
            for record in records:
                if record["class"] == "packet":
                    record["latency_s"] -= spent / len(lines)
        for record in records:
            record["factor"] = factor
        walls.append((wall, factor))
        outputs.append(records)
    return walls, outputs, warmup


# ----------------------------------------------------------------------
# Checks and metrics
# ----------------------------------------------------------------------
def check_records(report: Report, records: Sequence[Dict[str, Any]]) -> None:
    """Every request answered; hits from the cache and equal to their
    first completion; analytic rows equal an in-process run of the same
    spec; packet rows match the digests stored in reference.json."""
    first: Dict[str, Dict[str, Any]] = {}
    expected = reference()["serve-packet"]
    wrong: List[str] = []
    for record in records:
        label = record["label"]
        if record["error"] is not None:
            wrong.append(f"{label}: {record['error']}")
        elif record["class"] == "hit":
            if record["source"] != "cache" or record["row"] != first.get(label):
                wrong.append(f"{label}: hit not served from cache or row changed")
        else:
            first[label] = record["row"]
            if record["class"] == "packet" and digest(record["row"])[:16] != expected.get(label):
                wrong.append(f"{label}: packet row differs from reference.json")
    analytic = {r["label"]: r for r in records if r["class"] == "analytic" and r["error"] is None}
    catalogue = dict(analytic_catalogue())
    for label, record in analytic.items():
        outcome = execute_job(SweepJob(SystemSpec.from_dict(catalogue[label])))
        row = outcome.result.as_row() if outcome.ok else None
        if digest(row) != digest(record["row"]):
            wrong.append(f"{label}: analytic row differs from an in-process run")
    report.failed += len(wrong)
    report.check(not wrong, f"serve-mixed wrong outputs: {wrong[:3]}")


def class_metrics(
    records: Sequence[Dict[str, Any]], walls: Sequence[Tuple[float, float]]
) -> Dict[str, float]:
    """Per-class latency percentiles and the send -> accepted -> started ->
    completed split, from client-side receive times of protocol events."""
    metrics: Dict[str, float] = {"serve.req_per_s": len(records) / sum(w for w, _ in walls)}
    for cls in SERVE_CLASSES:
        mine = [r for r in records if r["class"] == cls and r["error"] is None]
        latencies = [r["latency_s"] * 1000.0 for r in mine]
        metrics[f"serve.{cls}.p50_ms"] = median(latencies)
        metrics[f"serve.{cls}.p90_ms"] = percentile(latencies, 90)
        metrics[f"serve.{cls}.accept_ms"] = median(r["stamps"]["accepted"] * 1000.0 for r in mine)
        started = [r for r in mine if "started" in r["stamps"]]
        if started:
            metrics[f"serve.{cls}.queue_ms"] = median(
                (r["stamps"]["started"] - r["stamps"]["accepted"]) * 1000.0 for r in started
            )
            metrics[f"serve.{cls}.run_ms"] = median(r["wall_s"] * 1000.0 for r in started)
            metrics[f"serve.{cls}.pool_overhead_ms"] = median(
                (r["stamps"]["completed"] - r["stamps"]["started"] - r["wall_s"]) * 1000.0
                for r in started
            )
    return metrics


def class_median(records: Sequence[Dict[str, Any]], cls: str, factor: Optional[float]) -> float:
    """Median latency of class ``cls``, each divided by ``factor`` or, when
    that is None, by its own script's slowdown."""
    return median(
        r["latency_s"] / (factor or r["factor"]) for r in records if r["class"] == cls
    )


def probe_daemon_setup(run_dir: str) -> float:
    """Median nominal-speed seconds from launching `repro serve` to its
    first pong."""
    launches = iter(range(SETUP_REPEATS))

    def launch() -> float:
        start = time.perf_counter()
        with Daemon(run_dir, f"probe-{next(launches)}") as daemon:
            daemon.wait_ready()
            return time.perf_counter() - start

    return timed_setups(launch)


def run_serve_mixed(seed: int, seconds: float, trace: bool, run_dir: str) -> Report:
    report = Report()
    scripts = make_scripts(seed)
    if not trace:
        setup = probe_daemon_setup(run_dir)
        speed_dir = os.path.join(run_dir, "speed")
        os.makedirs(speed_dir)
        with Daemon(run_dir, "serve", ["--speed", speed_dir]) as daemon:
            daemon.wait_ready()
            walls, outputs, warmup = session(daemon, scripts, RUN_SCRIPTS, speed_dir)
            rss = tree_peak_rss_mb()
        records = [r for out in outputs for r in out]
        report.attempted += len(records) + len(warmup)
        check_records(report, warmup + records)
        # The classes sit a decade apart, so the median of all requests
        # would fall on the edge between two of them and jump with the
        # few requests there; serve's p50 is the geometric mean of the
        # class medians instead, handed on at host speed with the factor
        # that turns it into the nominal-speed geomean.
        host_p50 = geomean([class_median(records, cls, 1.0) for cls in SERVE_CLASSES])
        nominal_p50 = geomean([class_median(records, cls, None) for cls in SERVE_CLASSES])
        report_end_to_end(report, setup, walls, [(host_p50, host_p50 / nominal_p50)], rss)
        return report
    report.per_layer["import.s"] = probe_setup("fig14-packet")[1]
    with Daemon(run_dir, "serve") as daemon:
        daemon.wait_ready()
        untraced, (walls, outputs, warmup) = nominal_wall(
            lambda: session(daemon, scripts, MIN_SCRIPTS)
        )
    records = [r for out in outputs for r in out]
    report.per_layer.update(class_metrics(records, walls))
    cost = calibrate_profiler()
    ledger_dir = os.path.join(run_dir, "ledgers-serve")
    os.makedirs(ledger_dir)
    with Daemon(run_dir, "serve-traced", ["--ledger", ledger_dir]) as daemon:
        daemon.wait_ready()
        traced, (_, traced_outputs, traced_warmup) = nominal_wall(
            lambda: session(daemon, scripts, MIN_SCRIPTS)
        )
    traced_records = [r for out in traced_outputs for r in out]
    ledger = merge(load_dir(ledger_dir))
    report.attempted += 2 * (len(records) + len(warmup))
    check_records(report, warmup + records)
    same = [r.get("row") for r in warmup + records] == [
        r.get("row") for r in traced_warmup + traced_records
    ]
    report.check(same, "serve-mixed rows differ between the traced and untraced daemons")
    report_layers(report, ledger, cost, untraced, traced, ledger["sim_records"])
    return report
