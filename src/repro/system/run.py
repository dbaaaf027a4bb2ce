"""Experiment runner: execute one workload on one architecture.

The runner drives the workload's steps in order (Fig. 5 command-queue
semantics): an optional blocking host-to-device copy, then kernels on the
virtual GPU interleaved with host-thread steps, then the device-to-host
copy.  It returns a :class:`~repro.system.metrics.RunResult` with the
Fig. 14 breakdown plus network/cache/energy statistics.

Two other kinds of run share the entry point.  An analytic-tier config
goes to :func:`repro.analytic.analytic_run`, and an
:class:`~repro.network.traffic.OfferedLoad` workload (synthetic traffic,
no GPUs or memory) to :func:`run_offered_load`, which drives it through
the bare GPU memory network.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Union

from ..config import SystemConfig
from ..core.virtual_gpu import VirtualGPU
from ..errors import ConfigError, SimulationError
from ..network.packet import PacketKind
from ..network.traffic import PACKET_BYTES, OfferedLoad
from ..obs.bind import Observability
from ..sim.engine import Simulator
from ..sim.watchdog import (
    collector_paused,
    queue_depth_summary,
    resolve_limits,
    run_guarded,
)
from ..workloads.base import HostStep, KernelStep, Workload
from .builder import MultiGPUSystem
from .configs import ArchSpec
from .energy import network_energy
from .fabric.base import make_network
from .fabric.gmn import gpu_network_topology
from .memcpy import memcpy_time_ps
from .metrics import RunResult


def run_workload(spec: ArchSpec, workload, cfg=None, **options) -> RunResult:
    """Simulate ``workload`` on the architecture described by ``spec``;
    ``options`` as for :func:`run_workload_detailed`.

    An event-engine run builds, drains and drops its system with the
    cyclic GC paused (:func:`~repro.sim.watchdog.collector_paused`): the
    system is unreachable before the pause ends, so the pause's one young
    collection frees it.  The analytic tier builds no graph and skips it.
    """
    cfg = cfg or SystemConfig()
    if cfg.network_model == "analytic" and not isinstance(workload, OfferedLoad):
        return run_workload_detailed(spec, workload, cfg, **options)[0]
    with collector_paused():
        return run_workload_detailed(spec, workload, cfg, **options)[0]


def run_workload_detailed(
    spec: ArchSpec,
    workload: Union[Workload, OfferedLoad],
    cfg: Optional[SystemConfig] = None,
    **options,
):
    """Run ``workload`` on ``spec``; returns ``(RunResult, system)``, the
    finished :class:`~repro.system.builder.MultiGPUSystem` for post-run
    inspection (e.g. :func:`repro.system.report.system_report`), or
    ``None`` when no system was built (analytic tier, network-only run).

    ``options`` are :func:`_run_system`'s keyword arguments (the analytic
    tier takes the same, except ``concurrent``); a network-only run
    ignores them.  The analytic tier also takes a workload's
    :class:`~repro.analytic.profile.WorkloadProfile` in its place.
    """
    cfg = cfg or SystemConfig()
    if isinstance(workload, OfferedLoad):
        return run_offered_load(spec, workload, cfg), None
    if cfg.network_model != "analytic":
        return _run_system(spec, workload, cfg, **options)
    # The analytic tier has no event engine and builds no system.
    if options.pop("concurrent", False):
        raise ConfigError(
            "the analytic tier does not model concurrent kernels; run "
            "at the packet or flit tier"
        )
    from ..analytic import analytic_run

    return analytic_run(spec, workload, cfg=cfg, **options), None


def _run_system(
    spec: ArchSpec,
    workload: Workload,
    cfg: SystemConfig,
    placement_policy: str = "random",
    placement_clusters: Optional[List[int]] = None,
    placement_weights: Optional[List[float]] = None,
    num_active_gpus: Optional[int] = None,
    collect_traffic: bool = False,
    seed: Optional[int] = None,
    obs: Optional[Observability] = None,
    concurrent: bool = False,
):
    """Build the full system and run ``workload``'s steps on it.

    ``num_active_gpus`` restricts kernel execution to the first N GPUs (all
    memory stays visible), as in the Fig. 7 remote-access study.
    ``placement_*`` override the page placement the transfer mode implies.
    ``obs`` attaches an :class:`~repro.obs.bind.Observability` bundle
    (tracing / sampling / profiling) to the run.  ``concurrent`` launches
    each run of consecutive kernel steps at once, as independent streams
    on a ``VirtualGPU(concurrent=True)`` (the Section III extension).
    """
    system = MultiGPUSystem(spec, cfg, obs=obs)
    system.install_page_table(
        policy=placement_policy,
        clusters=placement_clusters,
        weights=placement_weights,
        seed=seed,
    )
    sim = system.sim
    if sim.tracer is not None:
        # The builder labels the trace process with the architecture only;
        # now that the workload is known, make the sweep lanes readable.
        sim.tracer.relabel_process(f"{spec.name}: {workload.name}")

    vgpu = system.vgpu
    if num_active_gpus is not None or concurrent:
        gpus = system.gpus
        if num_active_gpus is not None:
            if not 1 <= num_active_gpus <= cfg.num_gpus:
                raise SimulationError(
                    f"num_active_gpus={num_active_gpus} outside [1, {cfg.num_gpus}]"
                )
            gpus = gpus[:num_active_gpus]
        vgpu = VirtualGPU(sim, gpus, policy=spec.cta_policy, concurrent=concurrent)

    result = RunResult(workload=workload.name, arch=spec.name)
    result.h2d_ps = memcpy_time_ps(spec, cfg, workload.h2d_bytes)
    result.d2h_ps = memcpy_time_ps(spec, cfg, workload.d2h_bytes)

    steps = list(workload.steps)
    state = {"idx": 0, "host_start": 0, "finished": False, "end_ps": 0}

    def run_step() -> None:
        idx = state["idx"]
        if idx >= len(steps):
            # Device-to-host copy, then done.
            if sim.tracer is not None and result.d2h_ps:
                sim.tracer.complete(
                    "memcpy", "D2H", sim.now, result.d2h_ps, tid="memcpy",
                    args={"bytes": workload.d2h_bytes},
                )
            sim.after(result.d2h_ps, finish)
            return
        state["idx"] = idx + 1
        step = steps[idx]
        if isinstance(step, KernelStep) and concurrent:
            # Streams: a run of kernel steps launches at once, and the
            # next step waits until the virtual GPU is idle again.
            vgpu.launch(step.kernel, on_done=lambda: vgpu.idle and run_step())
            if idx + 1 < len(steps) and isinstance(steps[idx + 1], KernelStep):
                run_step()
        elif isinstance(step, KernelStep):
            vgpu.launch(step.kernel, on_done=run_step)
        elif isinstance(step, HostStep):
            state["host_start"] = sim.now

            def host_done() -> None:
                result.host_ps += sim.now - state["host_start"]
                run_step()

            system.cpu.run_program(step.phases, host_done)
        else:  # pragma: no cover
            raise SimulationError(f"unknown step type {type(step)!r}")

    def finish() -> None:
        state["finished"] = True
        # Captured here because a trailing obs sampler tick may advance
        # sim.now past the workload's actual completion.
        state["end_ps"] = sim.now

    if sim.tracer is not None and result.h2d_ps:
        sim.tracer.complete(
            "memcpy", "H2D", sim.now, result.h2d_ps, tid="memcpy",
            args={"bytes": workload.h2d_bytes},
        )
    sim.after(result.h2d_ps, run_step)
    # The watchdog runs the engine in bounded slices so a livelocked
    # configuration (events forever, no progress) dies with a diagnostic
    # instead of hanging the process; see repro.sim.watchdog.
    run_guarded(
        sim,
        *resolve_limits(cfg),
        label=f"{workload.name} on {spec.name}",
        describe=lambda: queue_depth_summary(system),
    )
    if not state["finished"]:
        raise SimulationError(
            f"run of {workload.name} on {spec.name} deadlocked: "
            f"{sim.pending_events} events pending, "
            f"step {state['idx']}/{len(steps)}; {queue_depth_summary(system)}"
        )

    _collect(result, system, vgpu, collect_traffic, state["end_ps"])
    return result, system


def run_offered_load(
    spec: ArchSpec, traffic: OfferedLoad, cfg: SystemConfig
) -> RunResult:
    """Drive ``traffic`` through the bare GPU memory network of ``spec``
    (topology and routing) under ``cfg`` (engine tier, sizes, watchdog).

    Routers sink every packet, so the measured latency is the network's
    alone ([46]).  Raises :class:`~repro.errors.SimulationError` unless
    every injected packet is delivered: a stalled network must not report
    an average over only the packets that arrived.
    """
    sim = Simulator()
    topo = gpu_network_topology(spec, cfg)
    net = make_network(cfg, sim, topo, spec.routing)
    for r in range(topo.num_routers):
        net.set_router_handler(r, lambda packet: None)  # sink: arrived
    schedule = traffic.schedule(topo.num_routers, cfg)
    # Packets (and their ids) are created here, in schedule order.
    for t, terminal, dst in schedule:
        packet = net.packet(PacketKind.READ_REQ, terminal, dst, PACKET_BYTES)
        sim.at(t, partial(net.send, packet))
    stats = net.stats
    label = f"{traffic.name} on {spec.topology}"
    run_guarded(
        sim,
        *resolve_limits(cfg),
        label=label,
        describe=lambda: f"net in-flight={stats.injected - stats.delivered}",
    )
    if stats.delivered != len(schedule):
        raise SimulationError(
            f"{label}: delivered {stats.delivered} of {len(schedule)} "
            "injected packets"
        )
    return RunResult(
        workload=traffic.name,
        arch=spec.name,
        net_delivered=stats.delivered,
        avg_net_latency_ps=stats.avg_latency_ps,
        avg_hops=stats.avg_hops,
        events_executed=sim.events_executed,
        peak_pending_events=sim.peak_pending_events,
    )


def _collect(
    result: RunResult,
    system: MultiGPUSystem,
    vgpu: VirtualGPU,
    collect_traffic: bool,
    end_ps: int,
) -> None:
    sim = system.sim
    result.total_ps = end_ps
    result.kernel_ps = vgpu.total_kernel_ps()
    result.kernel_breakdown_ps = [l.runtime_ps for l in vgpu.launches]
    result.events_executed = sim.events_executed
    result.peak_pending_events = sim.peak_pending_events

    gpus = vgpu.gpus
    l1_hits = sum(s.l1.stats.hits for g in gpus for s in g.sms)
    l1_total = sum(s.l1.stats.accesses for g in gpus for s in g.sms)
    l2_hits = sum(g.l2.stats.hits for g in gpus)
    l2_total = sum(g.l2.stats.accesses for g in gpus)
    result.l1_hit_rate = l1_hits / l1_total if l1_total else 0.0
    result.l2_hit_rate = l2_hits / l2_total if l2_total else 0.0
    result.memory_requests = sum(g.stats.memory_requests for g in gpus)

    served = sum(h.total_served for h in system.hmc_list)
    hits = sum(
        v.stats.row_hits for h in system.hmc_list for v in h.vaults
    )
    result.hmc_row_hit_rate = hits / served if served else 0.0
    for h in system.hmc_list:
        for v in h.vaults:
            for cls, count in v.stats.class_served.items():
                result.class_served[cls] = (
                    result.class_served.get(cls, 0) + count
                )
            for cls, wait in v.stats.class_queue_wait_ps.items():
                result.class_queue_wait_ps[cls] = (
                    result.class_queue_wait_ps.get(cls, 0) + wait
                )

    if system.network is not None:
        stats = system.network.stats
        result.net_delivered = stats.delivered
        result.avg_net_latency_ps = stats.avg_latency_ps
        result.avg_hops = stats.avg_hops
        window = max(1, result.kernel_ps)
        result.energy = network_energy(
            system.network_channels(), window, system.cfg.energy
        )
        if collect_traffic:
            terminals = [f"gpu{g}" for g in range(system.num_gpus)]
            result.traffic_matrix = system.network.traffic_matrix(terminals)
