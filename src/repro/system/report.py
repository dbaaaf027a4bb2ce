"""Full-system statistics report: every component's counters in one tree.

``system_report(system)`` walks a :class:`MultiGPUSystem` after a run and
returns a nested, JSON-serializable dict — per-GPU cache hit rates and SM
occupancy, per-HMC service counts and row-hit rates, vault queue pressure
and service per requester class, the busiest channels of the whole
interconnect inventory (network, direct, PCIe and PCN links), and
PCIe/PCN/network aggregates.  It is the one post-run tree of component
counters (``repro run --report``); useful for debugging workload
calibrations and for research on top of the simulator.
"""

from __future__ import annotations

import json
from typing import Dict, List

from .builder import MultiGPUSystem


def _gpu_report(gpu) -> Dict:
    l1_hits = sum(sm.l1.stats.hits for sm in gpu.sms)
    l1_total = sum(sm.l1.stats.accesses for sm in gpu.sms)
    return {
        "kernel_launches": gpu.stats.kernel_launches,
        "busy_ps": gpu.stats.busy_ps,
        "reads": gpu.stats.reads,
        "writes": gpu.stats.writes,
        "atomics": gpu.stats.atomics,
        "memory_requests": gpu.stats.memory_requests,
        "merged_misses": gpu.stats.merged_misses,
        "l1_hit_rate": round(l1_hits / l1_total, 4) if l1_total else 0.0,
        "l2_hit_rate": round(gpu.l2.stats.hit_rate, 4),
        "ctas_executed": sum(sm.stats.ctas_executed for sm in gpu.sms),
        "phases_executed": sum(sm.stats.phases_executed for sm in gpu.sms),
        "compute_ps": sum(sm.stats.compute_ps for sm in gpu.sms),
    }


def _class_totals(vaults, field: str) -> Dict[str, int]:
    """One per-requester-class counter summed over ``vaults``."""
    totals: Dict[str, int] = {}
    for v in vaults:
        for cls, value in getattr(v.stats, field).items():
            totals[cls] = totals.get(cls, 0) + value
    return dict(sorted(totals.items()))


def _hmc_report(hmc) -> Dict:
    waits = sum(v.stats.total_queue_wait_ps for v in hmc.vaults)
    served = hmc.total_served
    return {
        "reads": hmc.stats.reads,
        "writes": hmc.stats.writes,
        "atomics": hmc.stats.atomics,
        "bytes_read": hmc.stats.bytes_read,
        "bytes_written": hmc.stats.bytes_written,
        "row_hit_rate": round(hmc.row_hit_rate, 4),
        "avg_queue_wait_ps": round(waits / served, 1) if served else 0.0,
        "overflow_peak": max((v.stats.overflow_peak for v in hmc.vaults), default=0),
        "class_served": _class_totals(hmc.vaults, "class_served"),
        "class_queue_wait_ps": _class_totals(hmc.vaults, "class_queue_wait_ps"),
    }


def _channel_report(channels, elapsed_ps: int) -> List[Dict]:
    """The channels that carried traffic, busiest (by utilization) first;
    ties keep inventory order."""
    used = [ch for ch in channels if ch.stats.bytes]
    used.sort(key=lambda ch: -ch.stats.busy_ps)
    return [
        {
            "name": ch.name,
            "bytes": ch.stats.bytes,
            "packets": ch.stats.packets,
            "utilization": round(
                ch.stats.busy_ps / elapsed_ps if elapsed_ps else 0.0, 4
            ),
        }
        for ch in used
    ]


def system_report(system: MultiGPUSystem, top_channels: int = 16) -> Dict:
    """Collect a full statistics tree from a (finished) system."""
    elapsed = system.sim.now
    report: Dict = {
        "architecture": system.spec.name,
        "num_gpus": system.num_gpus,
        "elapsed_ps": elapsed,
        "events_executed": system.sim.events_executed,
        "gpus": {gpu.name: _gpu_report(gpu) for gpu in system.gpus},
        "hmcs": {
            f"cluster{c}.hmc{lc}": _hmc_report(hmc)
            for (c, lc), hmc in system.hmcs.items()
            if hmc.stats.accesses
        },
        "hottest_channels": _channel_report(system.all_channels(), elapsed)[
            :top_channels
        ],
    }
    if system.page_table is not None:
        report["pages"] = {
            "total": system.page_table.num_pages,
            "per_cluster": system.page_table.pages_per_cluster(),
        }
    if system.network is not None:
        stats = system.network.stats
        report["network"] = {
            "delivered": stats.delivered,
            "injected": stats.injected,
            "avg_latency_ps": round(stats.avg_latency_ps, 1),
            "avg_hops": round(stats.avg_hops, 3),
        }
    for name in ("pcie", "pcn"):
        links = getattr(system, name)
        if links is not None:
            report[name] = {"transactions": links.transactions, "bytes": links.bytes}
    sampler = getattr(system, "sampler", None)
    if sampler is not None and sampler.num_samples:
        # Windowed congestion series recorded by the obs sampler.
        report["timeseries"] = sampler.as_dict()
    return report


def report_json(system: MultiGPUSystem, **kwargs) -> str:
    """The report as pretty-printed JSON."""
    return json.dumps(system_report(system, **kwargs), indent=2)
