"""Analytic fidelity tier: a calibrated capacity model of the system.

Where the packet and flit engines simulate every memory access event by
event, this tier *predicts* a sweep row in milliseconds from first
principles plus a small calibrated correction:

- :mod:`repro.analytic.profile` samples a workload's CTA programs and
  walks its host steps to extract compact traffic statistics;
- :mod:`repro.analytic.model` routes that traffic over the organization's
  interconnect (reusing the real topology builders and the shared
  :class:`~repro.network.trafficmatrix.TrafficMatrix` /
  :class:`~repro.network.trafficmatrix.FlowRouter`), applies M/D/1
  queueing at channels and vaults, and takes a per-GPU roofline over
  compute-, latency-, and bandwidth-bound throughput;
- :mod:`repro.analytic.calibrate` scales the raw predictions with
  per-architecture coefficients fitted against packet-model runs
  (committed in ``calibration.json``).

Selected with ``network_model="analytic"`` / ``--fidelity analytic``;
:func:`repro.system.run.run_workload` dispatches here automatically.
"""

from .calibrate import (
    Calibration,
    Coefficients,
    FigureReference,
    calibration_digest,
    calibration_key,
    fit_coefficients,
    load_calibration,
)
from .model import analytic_run, profile_for
from .profile import WorkloadProfile, profile_workload

__all__ = [
    "Calibration",
    "Coefficients",
    "FigureReference",
    "analytic_run",
    "calibration_digest",
    "calibration_key",
    "fit_coefficients",
    "load_calibration",
    "profile_for",
    "WorkloadProfile",
    "profile_workload",
]
