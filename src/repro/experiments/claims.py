"""The paper's claims, each computed in exactly one place.

A :class:`Claim` restates one comparison the paper draws — who wins, by
roughly what factor, where a crossover falls — as a ``measure`` over one
experiment's rows plus the bounds that value must respect.  Experiments
format their notes from these measures, ``ExperimentResult.render()``
prints one verdict per claim, ``benchmarks/bench_claims.py`` checks every
claim on fresh default sweeps, and ``tests/experiments/test_claims.py``
checks the claims whose rows are committed.

A verdict is ``n/a`` when the rows a claim reads are absent (a reduced
sweep, or a keep-going hole): measures raise ``KeyError`` rather than
judge a partial grid.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..system.metrics import geometric_mean

Rows = Sequence[Mapping[str, Any]]

#: Bound operators, with the side of the threshold the value must sit on.
_OPS = {
    ">": (operator.gt, 1),
    ">=": (operator.ge, 1),
    "<": (operator.lt, -1),
    "<=": (operator.le, -1),
    "==": (operator.eq, 0),
}


@dataclass(frozen=True)
class Claim:
    """One paper comparison: ``measure(rows)`` must satisfy every bound."""

    id: str
    experiment: str  # registry id of the experiment whose rows it reads
    paper: str  # the paper's number or ordering it restates
    measure: Callable[[Rows], float]
    bounds: Tuple[Tuple[str, float], ...]  # (op, threshold), op in _OPS


@dataclass(frozen=True)
class Verdict:
    claim: Claim
    value: Optional[float]  # None when the rows are absent (n/a)
    holds: Optional[bool]
    #: Distance from flipping, in the measure's units: the smallest of
    #: ``value - threshold`` over lower bounds, ``threshold - value`` over
    #: upper bounds and ``-|value - threshold|`` over ``==``.
    margin: Optional[float]

    def render(self) -> str:
        claim = self.claim
        if self.value is None:
            return f"claim {claim.id}: n/a (rows absent)"
        bounds = ", ".join(f"{op} {threshold:g}" for op, threshold in claim.bounds)
        return (
            f"claim {claim.id}: {'holds' if self.holds else 'FAILS'} "
            f"{self.value:.4g} ({bounds}; margin {self.margin:+.3g}) "
            f"[paper: {claim.paper}]"
        )


def _judge(claim: Claim, rows: Rows) -> Verdict:
    absent = Verdict(claim, None, None, None)
    if not rows:
        return absent
    try:
        value = claim.measure(rows)
    except KeyError:
        return absent
    holds = all(_OPS[op][0](value, t) for op, t in claim.bounds)
    margin = min(
        _OPS[op][1] * (value - t) if _OPS[op][1] else 0.0 - abs(value - t)
        for op, t in claim.bounds
    )
    return Verdict(claim, value, holds, margin)


def evaluate(experiment_id: str, rows: Rows) -> List[Verdict]:
    """One verdict per claim that reads ``experiment_id``'s rows."""
    return [_judge(c, rows) for c in CLAIMS if c.experiment == experiment_id]


def measure(claim_id: str, rows: Rows) -> float:
    """The value claim ``claim_id`` judges, for the notes that quote it."""
    return next(c for c in CLAIMS if c.id == claim_id).measure(rows)


# ----------------------------------------------------------------------
# Measures
# ----------------------------------------------------------------------
def _cells(rows: Rows, value: str, *keys: str) -> Dict[Any, Any]:
    """``{key: row[value]}``, keyed by the row's ``keys`` values (a tuple
    when there are several)."""
    return {
        (row[keys[0]] if len(keys) == 1 else tuple(row[k] for k in keys)): row[value]
        for row in rows
    }


def _table(rows: Rows, key: str, value: str, column: str = "workload") -> Dict:
    """``{row[key]: {row[column]: row[value]}}``, which must be a full grid."""
    grid: Dict[Any, Dict[Any, Any]] = {}
    for row in rows:
        grid.setdefault(row[key], {})[row[column]] = row[value]
    columns = [set(c) for c in grid.values()]
    if not grid or any(c != columns[0] for c in columns):
        raise KeyError(f"{value} does not fill the {key} x {column} grid")
    return grid


def _ratios(
    rows: Rows, num: str, den: str, value: str = "total_us", key: str = "arch"
) -> Dict[str, float]:
    """``{workload: num's value / den's value}`` in row order."""
    grid = _table(rows, key, value)
    return {w: grid[num][w] / grid[den][w] for w in grid[den]}


def speedup(
    rows: Rows, of: str, over: str = "PCIe", value: str = "total_us", key: str = "arch"
) -> float:
    """Geomean over workloads of ``over``'s value divided by ``of``'s."""
    return geometric_mean(list(_ratios(rows, over, of, value, key).values()))


def memcpy_over_kernel(rows: Rows, arch: str, workload: str) -> float:
    row = {(r["arch"], r["workload"]): r for r in rows}[(arch, workload)]
    return row["memcpy_us"] / row["kernel_us"]


def final_speedups(rows: Rows, column: str = "x16") -> Dict[str, float]:
    """Fig. 19's per-workload kernel speedup at the largest GPU count."""
    return _cells(rows, column, "workload")


def scaling_geomean(rows: Rows, column: str = "x16") -> float:
    return geometric_mean(list(final_speedups(rows, column).values()))


def l2_gains(rows: Rows) -> Dict[str, float]:
    """Static-minus-round-robin L2 hit rate, per workload (Sec. III-B)."""
    return {row["workload"]: row["l2_hit_static"] - row["l2_hit_rr"] for row in rows}


def first_touch_speedups(rows: Rows, value: str = "kernel_us") -> Dict[str, float]:
    """Random placement's ``value`` over first-touch's, per workload."""
    return _ratios(rows, "random", "first_touch", value, "placement")


def _div(values: Any, num: Any, den: Any) -> float:
    return values[num] / values[den]


def _lead(values: Mapping[Any, float], leader: Any) -> float:
    """The runner-up's value over ``leader``'s (> 1: ``leader`` is lowest)."""
    return min(v for k, v in values.items() if k != leader) / values[leader]


def _fig7(rows: Rows, system: str, value: str = "normalized_runtime") -> List[float]:
    """``system``'s values across the three Fig. 7 data distributions."""
    series = [row[value] for row in rows if row["system"] == system]
    if len(series) != 3:
        raise KeyError(f"Fig. 7 {system} has {len(series)} of 3 points")
    return series


def _line(rows: Rows, value: str) -> Dict[str, float]:
    """Fig. 10's per-workload ``value`` under cache-line interleaving."""
    return _table(rows, "interleave", value)["line"]


def _umn_lead(rows: Rows) -> float:
    """UMN's smallest lead over the runner-up, across the workloads."""
    grid = _table(rows, "workload", "total_us", "arch")
    return min(_lead(archs, "UMN") for archs in grid.values())


def _zc_gap(rows: Rows) -> float:
    """Worst |GMN-ZC - PCIe-ZC| total runtime over the workloads (us)."""
    grid = _table(rows, "arch", "total_us")
    return max(abs(a - b) for a, b in zip(grid["GMN-ZC"].values(), grid["PCIe-ZC"].values()))


def _gmn_kernel(rows: Rows) -> List[float]:
    return list(_ratios(rows, "PCIe", "GMN", "kernel_us").values())


def _topology(rows: Rows, of: str, over: str = "smesh") -> float:
    return speedup(rows, of, over, "kernel_us", "topology")


def _means(rows: Rows, value: str) -> Dict[str, float]:
    """Per-topology mean of ``value`` over the workloads."""
    grid = _table(rows, "topology", value)
    return {t: sum(c.values()) / len(c) for t, c in grid.items()}


def _savings(rows: Rows) -> List[float]:
    """sFBFLY's network-energy saving over sMESH, % per workload."""
    saved = _ratios(rows, "sfbfly", "smesh", "energy_uj", "topology")
    return [100 * (1 - r) for r in saved.values()]


def _worst_step(series: Sequence[Sequence[float]]) -> float:
    """Smallest step-to-step ratio along any of ``series``."""
    return min(b / a for s in series for a, b in zip(s, s[1:]))


def _lat90(rows: Rows) -> Dict[str, float]:
    return _cells(rows, "lat@90%", "topology")


def _flit(rows: Rows, study: str) -> Dict[str, float]:
    found = _cells([row for row in rows if row["study"] == study], "ratio", "point")
    if not found:
        raise KeyError(f"no {study} rows")
    return found


# ----------------------------------------------------------------------
# The claims
# ----------------------------------------------------------------------
#: Fig. 14 factors committed at scale 0.25 (calibration.json).  Their upper
#: bounds give each the 1.25x headroom of the cross-tier bands, so the
#: overshoot over the paper cannot grow unnoticed.
_FIG14_COMMITTED = {
    "UMN": 23.43, "CMN": 4.36, "CMN-ZC": 8.43, "GMN max": 18.83, "GMN avg": 11.82,
}
#: Claim-id prefixes that read another experiment's rows: Fig. 17 reports
#: network energy from the Fig. 16 runs.
_READS = {"fig17": "fig16"}
_MEMCPY_BOUND = ("SCAN", "3DFD")  # Fig. 14 workloads whose PCIe memcpy > kernel
_STREAMING = ("SCAN", "3DFD", "SRAD")  # ext-mapping's streaming workloads


def _claim(id: str, paper: str, measure: Callable[[Rows], float], *bounds) -> Claim:
    prefix = id.split(".")[0]
    return Claim(id, _READS.get(prefix, prefix), paper, measure, bounds)


def _upper(name: str) -> Tuple[str, float]:
    return ("<", 1.25 * _FIG14_COMMITTED[name])


CLAIMS: Tuple[Claim, ...] = (
    _claim("fig7.pcie-4way-slowdown", "up to 11.7x",
           lambda r: _fig7(r, "PCIe")[2], (">", 5.0)),
    _claim("fig7.pcie-2way-slowdown", "several x",
           lambda r: _fig7(r, "PCIe")[1], (">", 2.0)),
    _claim("fig7.gmn-50pct-faster", "< 1.0x of all-local",
           lambda r: _fig7(r, "GMN")[1], ("<", 1.0)),
    _claim("fig7.gmn-latency-grows", "4.3x (75% remote over all-local)",
           lambda r: _div(_fig7(r, "GMN", "avg_net_latency_ns"), 2, 0), (">", 1.0)),
    _claim("fig10.cgs-imbalance", "CG.S up to 11.7x; KMN near-uniform",
           lambda r: _div(_line(r, "hmc_traffic_max_over_min"), "CG.S", "KMN"), (">", 1.5)),
    _claim("fig10.line-intra-balanced", "low intra-cluster variance",
           lambda r: max(_line(r, "worst_intra_cluster_ratio").values()), ("<", 2.0)),
    _claim("fig10.page-ablation-unbalances", "line interleaving is load-bearing",
           lambda r: _ratios(r, "page", "line", "worst_intra_cluster_ratio",
                            "interleave")["KMN"], (">", 2.0)),
    _claim("fig12.dfbfly-4gpu-channels", "48",
           lambda r: _cells(r, "dfbfly_channels", "gpus")[4], ("==", 48)),
    _claim("fig12.sfbfly-4gpu-channels", "24",
           lambda r: _cells(r, "sfbfly_channels", "gpus")[4], ("==", 24)),
    _claim("fig12.saving-4gpu", "50%", lambda r: _cells(r, "saving_pct", "gpus")[4],
           (">=", 50.0 - 0.1), ("<=", 50.0 + 0.1)),
    _claim("fig12.saving-8gpu", "43%", lambda r: _cells(r, "saving_pct", "gpus")[8],
           (">=", 43.0 - 1.0), ("<=", 43.0 + 1.0)),
    _claim("fig12.sfbfly-8gpu-fits-hmc", "within the HMC's 8 channels",
           lambda r: _cells(r, "max_hmc_degree_sfbfly", "gpus")[8], ("<=", 8)),
    _claim("fig12.dfbfly-8gpu-exceeds-hmc", "beyond the HMC's 8 channels",
           lambda r: _cells(r, "max_hmc_degree_dfbfly", "gpus")[8], (">", 8)),
    _claim("fig14.umn-fastest", "UMN fastest on every workload", _umn_lead, (">", 1.0)),
    _claim("fig14.umn-speedup", "8.5x",
           lambda r: speedup(r, "UMN"), (">", 4.0), _upper("UMN")),
    _claim("fig14.cmn-speedup", "1.8x",
           lambda r: speedup(r, "CMN"), (">", 1.3), _upper("CMN")),
    _claim("fig14.cmn-zc-speedup", "2.2x",
           lambda r: speedup(r, "CMN-ZC"), (">", 1.0), _upper("CMN-ZC")),
    _claim("fig14.cmn-zc-vs-cmn", "2.2x vs 1.8x",
           lambda r: speedup(r, "CMN-ZC") / speedup(r, "CMN"), (">", 0.9)),
    _claim("fig14.gmn-zc-equals-pcie-zc", "identical", _zc_gap, ("==", 0.0)),
    _claim("fig14.gmn-kernel-max", "8.8x (BP)",
           lambda r: max(_gmn_kernel(r)), (">", 4.0), _upper("GMN max")),
    _claim("fig14.gmn-kernel-geomean", "3.5x",
           lambda r: geometric_mean(_gmn_kernel(r)), (">", 1.0), _upper("GMN avg")),
    _claim("fig14.zc-memcpy-bound", "memcpy > kernel on PCIe for SCAN, 3DFD",
           lambda r: min(memcpy_over_kernel(r, "PCIe", w) for w in _MEMCPY_BOUND),
           (">", 1.0)),
    _claim("fig14.zc-wins", "zero-copy wins where memcpy dominates",
           lambda r: min(_ratios(r, "PCIe", "PCIe-ZC")[w] for w in _MEMCPY_BOUND),
           (">", 1.0)),
    _claim("fig15.ugal-cgs-dfbfly", "9.5%",
           lambda r: _table(r, "topology", "ugal_gain_pct")["dfbfly"]["CG.S"], (">", 2.0)),
    _claim("fig15.ugal-uniform-no-harm", "~1-2% on KMN, CP",
           lambda r: min(_table(r, "topology", "ugal_gain_pct")[t][w]
                         for t in ("ddfly", "dfbfly") for w in ("KMN", "CP")),
           (">", -3.0)),
    _claim("fig16.smesh-2x-beats-smesh", "sMESH-2x > sMESH",
           lambda r: _topology(r, "smesh-2x"), (">", 1.0)),
    _claim("fig16.storus-2x-beats-storus", "sTORUS-2x > sTORUS",
           lambda r: _topology(r, "storus-2x", "storus"), (">", 1.0)),
    _claim("fig16.sfbfly-speedup", "sFBFLY clearly ahead of sMESH",
           lambda r: _topology(r, "sfbfly"), (">", 1.2)),
    _claim("fig16.sfbfly-near-best", "sFBFLY best or comparable",
           lambda r: _topology(r, "sfbfly")
           / max(_topology(r, t) for t in _table(r, "topology", "kernel_us")), (">", 0.9)),
    _claim("fig16.sfbfly-fewest-hops", "sFBFLY lowest hop count",
           lambda r: _lead(_means(r, "avg_hops"), "sfbfly"), (">=", 1.0)),
    _claim("fig17.energy-saving-mean", "20.3% avg",
           lambda r: sum(_savings(r)) / len(_savings(r)), (">", 10.0)),
    _claim("fig17.energy-saving-max", "50.7% (BP)",
           lambda r: max(_savings(r)), (">", 25.0)),
    _claim("fig17.sfbfly-lowest-energy", "sFBFLY lowest energy",
           lambda r: _lead(_means(r, "energy_uj"), "sfbfly"), (">=", 1.0)),
    _claim("fig17.smesh-2x-energy", "-2x variants slightly lower energy",
           lambda r: _div(_means(r, "energy_uj"), "smesh-2x", "smesh"), ("<", 1.3)),
    _claim("fig18.overlay-beats-sfbfly", "overlay > sFBFLY (host time)",
           lambda r: min(_ratios(r, "sfbfly", "overlay", "host_us", "design").values()),
           (">", 1.0)),
    _claim("fig18.sfbfly-beats-smesh", "sFBFLY > sMESH (host time)",
           lambda r: min(_ratios(r, "smesh", "sfbfly", "host_us", "design").values()),
           (">", 1.0)),
    _claim("fig19.geomean-x16", "13.5x", scaling_geomean, (">", 8.0)),
    _claim("fig19.fwt-worst", "FWT lowest (11.2x)",
           lambda r: _lead(final_speedups(r), "FWT"), (">", 1.0)),
    _claim("fig19.cp-x16", "CP near-ideal",
           lambda r: final_speedups(r)["CP"], (">", 10.0)),
    _claim("fig19.monotone", "speedup grows with GPU count",
           lambda r: _worst_step([[x[f"x{n}"] for n in (1, 2, 4, 8, 16)] for x in r]),
           (">=", 0.95)),
    _claim("sec3b.static-vs-rr", "1.08x",
           lambda r: geometric_mean([x["round_robin_us"] / x["static_us"] for x in r]),
           (">", 1.02)),
    _claim("sec3b.stealing-vs-static", "< 1.01x",
           lambda r: geometric_mean([x["static_us"] / x["stealing_us"] for x in r]),
           (">", 0.98), ("<", 1.05)),
    _claim("sec3b.l2-locality", "L2 up to +20%",
           lambda r: min(l2_gains(r)[w] for w in ("SRAD", "3DFD")), (">", 0.0)),
    _claim("ext-mapping.first-touch-faster", "open question (Sec. III-C)",
           lambda r: min(first_touch_speedups(r)[w] for w in _STREAMING), (">", 1.0)),
    _claim("ext-mapping.first-touch-hops", "open question (Sec. III-C)",
           lambda r: max(_table(r, "placement", "avg_hops")["first_touch"][w]
                         for w in _STREAMING), ("<", 1.3)),
    _claim("ext-mapping.first-touch-energy", "open question (Sec. III-C)",
           lambda r: min(first_touch_speedups(r, "energy_uj")[w] for w in _STREAMING),
           (">", 1.0)),
    _claim("ext-mapping.cgs-locality-cost", "open question (Sec. III-C)",
           lambda r: 1 / first_touch_speedups(r)["CG.S"], (">", 0.9)),
    _claim("ext-concurrent.underfilled-overlap", "future work (Sec. III)",
           lambda r: min(_cells(r, "overlap_speedup", "kernels")[k]
                         for k in ("CG.S+FT.S", "CG.S+CG.S")), (">", 1.3)),
    _claim("ext-concurrent.saturated-conserved", "future work (Sec. III)",
           lambda r: _cells(r, "overlap_speedup", "kernels")["BP+KMN"],
           (">", 0.9), ("<", 1.5)),
    _claim("ext-latency-load.rises-with-load", "[46] methodology (ns, 90% - 10%)",
           lambda r: min(_cells(r, "lat@90%", "topology")[t] - lat
                         for t, lat in _cells(r, "lat@10%", "topology").items()),
           (">=", 0.0)),
    _claim("ext-latency-load.sfbfly-flattest-sliced", "sFBFLY flattest sliced curve",
           lambda r: min(_div(_lat90(r), t, "sfbfly") for t in ("smesh", "storus")),
           (">", 1.0)),
    _claim("ext-latency-load.sfbfly-equals-dfbfly", "same minimal routes (ns apart)",
           lambda r: _lat90(r)["sfbfly"] - _lat90(r)["dfbfly"], ("==", 0.0)),
    _claim("ext-latency-load.ddfly-saturates", "one global channel per cluster pair",
           lambda r: _div(_lat90(r), "ddfly", "sfbfly"), (">", 2.0)),
    _claim("ext-pcn.nvlink-beats-pcie", "NVLink removes the PCIe bottleneck",
           lambda r: min(_ratios(r, "PCIe", "NVLink").values()), (">", 1.0)),
    _claim("ext-pcn.umn-beats-nvlink", "memory networks stay ahead of a PCN",
           lambda r: min(_ratios(r, "NVLink", "UMN").values()), (">", 1.0)),
    _claim("ext-pcn.gmn-kernel-losses", "memory networks stay ahead of a PCN",
           lambda r: sum(x < 1.0 for x in _ratios(r, "NVLink", "GMN", "kernel_us")
                         .values()), ("<=", 1)),
    _claim("ext-flit.low-load-agreement", "cycle-accurate NoC simulator [51]",
           lambda r: _flit(r, "latency-load")["10% load"], (">", 0.7), ("<", 1.3)),
    _claim("ext-flit.backpressure-monotone", "cycle-accurate NoC simulator [51]",
           lambda r: _worst_step([[_flit(r, "latency-load")[f"{p}% load"]
                                   for p in (10, 40, 80)]]), (">=", 1.0)),
    _claim("ext-flit.full-system-floor", "cycle-accurate NoC simulator [51]",
           lambda r: min(_flit(r, "full-system").values()), (">=", 1.0)),
    _claim("ext-flit.full-system-ceiling", "cycle-accurate NoC simulator [51]",
           lambda r: max(_flit(r, "full-system").values()), ("<", 4.0)),
    _claim("ext-sensitivity.umn-survives", "UMN > PCIe (Fig. 14)",
           lambda r: min(_cells(r, "umn_speedup_vs_pcie", "parameter").values()),
           (">", 1.0)),
    _claim("ext-sensitivity.sfbfly-survives", "sFBFLY > sMESH (Fig. 16)",
           lambda r: min(_cells(r, "sfbfly_speedup_vs_smesh", "parameter").values()),
           (">", 1.0)),
    _claim("ext-sensitivity.bandwidth-driven", "UMN's win is bandwidth-driven",
           lambda r: _div(_cells(r, "umn_speedup_vs_pcie", "parameter"),
                          "baseline", "channel bw x0.5"), (">", 1.0)),
)
