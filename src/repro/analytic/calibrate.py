"""Calibration of the analytic tier against the packet model.

The capacity model is deliberately simple — fixed row-hit estimate, mean
phase latencies, M/D/1 waits — so its raw predictions carry systematic,
architecture-shaped bias.  A small set of multiplicative coefficients per
``(architecture, topology, vault-bus)`` key absorbs that bias; they are
fitted as the geometric mean of packet/analytic ratios over a sweep and
committed in ``calibration.json`` next to this module, together with the
packet-model reference rows and the per-figure tolerance bands the
cross-tier harness (``python -m repro.exec xtier``) enforces.

The committed artifact goes stale when the simulator changes: refitting
moves a coefficient by more than :data:`STALE_DRIFT`.  CI refits in
memory and fails on drift so the artifact cannot silently rot.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..config import SystemConfig
from ..errors import ConfigError
from ..system.configs import ArchSpec

#: Schema of the committed calibration artifact.
CALIBRATION_SCHEMA = 1

#: Relative coefficient drift beyond which the artifact counts as stale.
STALE_DRIFT = 0.10

#: The committed artifact, shipped inside the package.
DEFAULT_PATH = os.path.join(os.path.dirname(__file__), "calibration.json")


def calibration_key(spec: ArchSpec, cfg: SystemConfig) -> str:
    """Coefficient bucket for one run: architecture x topology x the one
    memory knob the figure sweeps vary (Fig. 17's vault bus width)."""
    return f"{spec.name}/{spec.topology}/v{cfg.hmc.vault_bus_bytes_per_cycle}"


@dataclass(frozen=True)
class Coefficients:
    """Multiplicative corrections applied to the raw analytic estimate."""

    kernel: float = 1.0
    host: float = 1.0
    latency: float = 1.0
    hops: float = 1.0
    energy: float = 1.0

    def as_dict(self) -> Dict[str, float]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Coefficients":
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(data) - known
        if extra:
            raise ConfigError(
                f"unknown calibration coefficient(s) {sorted(extra)}; "
                f"valid: {sorted(known)}"
            )
        return cls(**{k: float(v) for k, v in data.items()})

    def drift(self, other: "Coefficients") -> float:
        """Largest relative difference between two coefficient sets."""
        worst = 0.0
        for f in dataclasses.fields(self):
            a = getattr(self, f.name)
            b = getattr(other, f.name)
            denom = max(abs(a), 1e-12)
            worst = max(worst, abs(a - b) / denom)
        return worst


@dataclass
class FigureReference:
    """Committed packet-model rows and tolerance bands for one figure."""

    #: Per-column relative tolerance the analytic tier must stay within.
    tolerance: Dict[str, float] = field(default_factory=dict)
    #: Packet-fidelity reference rows, exactly as the experiment emits them.
    rows: List[Dict[str, Any]] = field(default_factory=list)


@dataclass
class Calibration:
    """The full calibration artifact."""

    coefficients: Dict[str, Coefficients] = field(default_factory=dict)
    figures: Dict[str, FigureReference] = field(default_factory=dict)
    #: Free-form provenance (fit date, sweep scale); never interpreted.
    meta: Dict[str, Any] = field(default_factory=dict)

    def for_key(self, key: str) -> Coefficients:
        """Coefficients for a run key; identity when the key is unknown
        (uncalibrated architectures still produce an ordered estimate)."""
        return self.coefficients.get(key, Coefficients())

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": CALIBRATION_SCHEMA,
            "coefficients": {
                key: self.coefficients[key].as_dict()
                for key in sorted(self.coefficients)
            },
            "figures": {
                fig: {
                    "tolerance": dict(sorted(ref.tolerance.items())),
                    "rows": ref.rows,
                }
                for fig, ref in sorted(self.figures.items())
            },
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Calibration":
        schema = data.get("schema", CALIBRATION_SCHEMA)
        if schema != CALIBRATION_SCHEMA:
            raise ConfigError(
                f"unsupported calibration schema {schema!r} "
                f"(expected {CALIBRATION_SCHEMA})"
            )
        return cls(
            coefficients={
                key: Coefficients.from_dict(val)
                for key, val in (data.get("coefficients") or {}).items()
            },
            figures={
                fig: FigureReference(
                    tolerance={
                        k: float(v)
                        for k, v in (ref.get("tolerance") or {}).items()
                    },
                    rows=list(ref.get("rows") or []),
                )
                for fig, ref in (data.get("figures") or {}).items()
            },
            meta=dict(data.get("meta") or {}),
        )

    def save(self, path: str = DEFAULT_PATH) -> None:
        # By rename: a reader never sees a torn file, and the new inode
        # changes the stamp load_calibration's process cache checks.
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=False)
            handle.write("\n")
        os.replace(tmp, path)

    def stale_keys(self, refit: "Calibration") -> Dict[str, float]:
        """Keys whose refit coefficients drifted beyond :data:`STALE_DRIFT`."""
        stale: Dict[str, float] = {}
        for key, fresh in refit.coefficients.items():
            drift = self.for_key(key).drift(fresh)
            if drift > STALE_DRIFT:
                stale[key] = drift
        return stale


#: ``(path, stamp, artifact, digest)`` of the last read of the default
#: artifact; ``stamp`` is the file's ``(st_ino, st_size, st_mtime_ns)``.
#: Coefficients and digest come from one read, so a result is always
#: keyed under the digest of the coefficients that computed it.
_current: Optional[Tuple[str, Any, Calibration, str]] = None


def load_calibration(path: Optional[str] = None) -> Calibration:
    """Load the calibration artifact (the committed one by default,
    cached process-wide until the file changes; a missing file yields
    identity coefficients)."""
    return _read(path)[0] if path is not None else _default()[2]


def calibration_digest(path: Optional[str] = None) -> str:
    """Short content digest of the calibration artifact (``"missing"``
    when absent).  Part of every analytic job's cache identity: refitting
    the artifact must invalidate cached analytic rows, which the code
    digest alone cannot see.  The default artifact's digest is the one
    :func:`load_calibration` read its coefficients with."""
    return _read(path)[1] if path is not None else _default()[3]


def _default() -> Tuple[str, Any, Calibration, str]:
    """The default artifact, read again whenever its stamp changes."""
    global _current
    path = DEFAULT_PATH
    try:
        st = os.stat(path)
        stamp = (st.st_ino, st.st_size, st.st_mtime_ns)
    except FileNotFoundError:
        stamp = None
    if _current is None or _current[:2] != (path, stamp):
        # Stamped before the read: a rewrite in between is read again.
        _current = (path, stamp, *_read(path))
    return _current


def _read(path: str) -> Tuple[Calibration, str]:
    """The artifact at ``path`` and the digest of the same bytes."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return Calibration(), "missing"
    digest = hashlib.sha256(data).hexdigest()[:16]
    return Calibration.from_dict(json.loads(data)), digest


def _geomean(ratios: List[float]) -> float:
    if not ratios:
        return 1.0
    product = 1.0
    for r in ratios:
        product *= r
    return product ** (1.0 / len(ratios))


def fit_coefficients(pairs: Iterable[Tuple[Any, Any]]) -> Coefficients:
    """Fit one coefficient set from ``(packet, raw_analytic)`` RunResult
    pairs: the geometric mean of the packet/analytic ratio per metric.

    Zero-valued metrics (e.g. network latency on PCIe rows) contribute
    nothing — their ratio is undefined and the coefficient stays neutral
    for them by construction.
    """
    buckets: Dict[str, List[float]] = {
        "kernel": [],
        "host": [],
        "latency": [],
        "hops": [],
        "energy": [],
    }

    def ratio(bucket: str, measured: float, predicted: float) -> None:
        if measured > 0 and predicted > 0:
            buckets[bucket].append(measured / predicted)

    for packet, raw in pairs:
        ratio("kernel", packet.kernel_ps, raw.kernel_ps)
        ratio("host", packet.host_ps, raw.host_ps)
        ratio("latency", packet.avg_net_latency_ps, raw.avg_net_latency_ps)
        ratio("hops", packet.avg_hops, raw.avg_hops)
        if packet.energy is not None and raw.energy is not None:
            ratio("energy", packet.energy.total_pj, raw.energy.total_pj)
    return Coefficients(
        **{name: _geomean(vals) for name, vals in buckets.items()}
    )
