"""Builders for every memory-network topology evaluated in the paper.

Every topology is built from the system configuration alone
(:func:`build_topology`, :func:`build_cmn`): ``cfg.num_gpus`` clusters of
``cfg.gpu.hmcs_per_gpu`` HMCs, channels of ``cfg.network.channel_gbps``,
and each terminal's ``num_channels`` (Table I) spread over its links.

Router numbering convention: router ``c * H + s`` is the ``s``-th local HMC
(slice ``s``) of cluster ``c``.  GPU ``g`` owns cluster ``g``; when a CPU is
part of the network (CMN/UMN) it owns the last cluster.  Terminals are named
``"gpu0" .. "gpuN-1"`` and ``"cpu"``.

Topologies (Figs. 11, 13, 16), one :data:`BUILDERS` entry each:

- ``ring``     — all HMCs on a ring (illustrative baseline, Fig. 9(b)).
- ``fbfly``    — conventional 2D flattened butterfly, one attachment point
  per GPU (Fig. 11(b)).
- ``dfbfly``   — distributor-based FBFLY: sliced inter-cluster FBFLY *plus*
  intra-cluster cliques (Fig. 11(c)).
- ``ddfly``    — distributor-based dragonfly: intra-cluster cliques plus one
  channel between each pair of clusters (Fig. 11(a)).
- ``sfbfly``   — the proposed sliced FBFLY: per-slice FBFLY, no
  intra-cluster channels (Fig. 11(d)).
- ``smesh``/``storus`` (+``-2x``) — sliced mesh/torus variants (Fig. 16);
  the ``-2x`` variants double every slice channel's width.
- ``overlay``  — sFBFLY plus serial CPU pass-through chains (Fig. 13); an
  ``overlay-smesh`` variant overlays the chains on sMESH.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List

from ...config import SystemConfig
from ...errors import TopologyError
from ..topology import Topology
from .grids import clique_edges, fbfly2d_edges, ring_edges, slice_edges

#: Per-GPU channels into the CMN (the PCIe replacement link, Fig. 8(a)).
CMN_GPU_CHANNELS = 2


def _channels(cfg: SystemConfig, terminal: str) -> int:
    return cfg.cpu.num_channels if terminal == "cpu" else cfg.gpu.num_channels


def direct_link_width(cfg: SystemConfig, terminal: str) -> int:
    """Channel width of each of ``terminal``'s links to its cluster's HMCs
    (direct links and distributed network attachments alike): its
    channels (Table I) spread over one cluster's HMCs."""
    return max(1, _channels(cfg, terminal) // cfg.gpu.hmcs_per_gpu)


def _terminals(cfg: SystemConfig, include_cpu: bool) -> List[str]:
    """Terminal names in cluster order."""
    return [f"gpu{g}" for g in range(cfg.num_gpus)] + (["cpu"] if include_cpu else [])


def _attach_distributed_terminals(
    topo: Topology, cfg: SystemConfig, include_cpu: bool
) -> None:
    """Attach each terminal to all its local HMCs with distributed channels."""
    h = cfg.gpu.hmcs_per_gpu
    for cluster, terminal in enumerate(_terminals(cfg, include_cpu)):
        width = direct_link_width(cfg, terminal)
        for s in range(h):
            topo.attach_terminal(terminal, cluster * h + s, width=width)


def _slice_members(topo: Topology, slice_id: int) -> List[int]:
    return [r for r in range(topo.num_routers) if topo.slice_of[r] == slice_id]


def _cluster_members(cluster: int, hmcs_per_gpu: int) -> List[int]:
    return list(range(cluster * hmcs_per_gpu, (cluster + 1) * hmcs_per_gpu))


def _num_clusters(cfg: SystemConfig, include_cpu: bool) -> int:
    return cfg.num_gpus + (1 if include_cpu else 0)


# ---------------------------------------------------------------------------
# Sliced family (sFBFLY / sMESH / sTORUS and -2x variants)
# ---------------------------------------------------------------------------
def _sliced(
    style: str, slice_width: int, topo: Topology, cfg: SystemConfig, include_cpu: bool
) -> None:
    """Sliced topology: slice ``s`` interconnects the ``s``-th HMC of every
    cluster with the given slice graph style; no intra-cluster channels."""
    for s in range(cfg.gpu.hmcs_per_gpu):
        for a, b in slice_edges(style, _slice_members(topo, s)):
            topo.add_link(a, b, width=slice_width)
    _attach_distributed_terminals(topo, cfg, include_cpu)


# ---------------------------------------------------------------------------
# Distributor-based topologies from [5] (baselines)
# ---------------------------------------------------------------------------
def _dfbfly(topo: Topology, cfg: SystemConfig, include_cpu: bool) -> None:
    """dFBFLY = sliced FBFLY plus a clique inside every cluster."""
    _sliced("fbfly", 1, topo, cfg, include_cpu)
    h = cfg.gpu.hmcs_per_gpu
    for c in range(_num_clusters(cfg, include_cpu)):
        for a, b in clique_edges(_cluster_members(c, h)):
            topo.add_link(a, b)


def _ddfly(topo: Topology, cfg: SystemConfig, include_cpu: bool) -> None:
    """dDFLY: intra-cluster cliques + one global channel per cluster pair.

    Global link endpoints follow the standard dragonfly assignment: cluster
    ``i``'s global port toward cluster ``j`` lands on local HMC
    ``port % hmcs_per_gpu`` so the global channels are spread across a
    cluster's HMCs.
    """
    h = cfg.gpu.hmcs_per_gpu
    num_clusters = _num_clusters(cfg, include_cpu)
    for c in range(num_clusters):
        for a, b in clique_edges(_cluster_members(c, h)):
            topo.add_link(a, b)
    for i in range(num_clusters):
        for j in range(i + 1, num_clusters):
            port_i = (j - 1) if j > i else j
            port_j = (i - 1) if i > j else i
            topo.add_link(i * h + port_i % h, j * h + port_j % h)
    _attach_distributed_terminals(topo, cfg, include_cpu)


# ---------------------------------------------------------------------------
# Non-distributed baselines
# ---------------------------------------------------------------------------
def _ring(topo: Topology, cfg: SystemConfig, include_cpu: bool) -> None:
    """All HMCs on one ring (Fig. 9(b) illustration)."""
    for a, b in ring_edges(list(range(topo.num_routers))):
        topo.add_link(a, b)
    _attach_distributed_terminals(topo, cfg, include_cpu)


def _fbfly(topo: Topology, cfg: SystemConfig, include_cpu: bool) -> None:
    """Conventional 2D FBFLY over all HMCs; each terminal attaches all of its
    channels to a single router (no distribution), per Fig. 11(b)."""
    for a, b in fbfly2d_edges(list(range(topo.num_routers))):
        topo.add_link(a, b)
    h = cfg.gpu.hmcs_per_gpu
    for cluster, terminal in enumerate(_terminals(cfg, include_cpu)):
        topo.attach_terminal(terminal, cluster * h, width=_channels(cfg, terminal))


# ---------------------------------------------------------------------------
# Overlay for UMN (Fig. 13)
# ---------------------------------------------------------------------------
def _overlay(
    base_style: str, topo: Topology, cfg: SystemConfig, include_cpu: bool
) -> None:
    """A sliced base topology plus serial CPU pass-through chains.

    Per slice, a dedicated chain starts at the CPU's local HMC of that slice
    and serially visits every GPU cluster's HMC in the slice; CPU packets ride
    the chain at pass-through latency (Section V-C).
    """
    if not include_cpu:
        raise TopologyError("the overlay exists to serve a CPU", topology=topo.name)
    _sliced(base_style, 1, topo, cfg, include_cpu)
    g, h = cfg.num_gpus, cfg.gpu.hmcs_per_gpu
    for s in range(h):
        head = g * h + s
        topo.add_passthrough_chain("cpu", s, [head] + [c * h + s for c in range(g)])


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
#: Topology name -> ``wire(topo, cfg, include_cpu)``, which adds the
#: router links and attaches the terminals.  The sliced entries bind
#: (slice style, slice channel width); the overlays bind their base
#: slice style.
BUILDERS: Dict[str, Callable[[Topology, SystemConfig, bool], None]] = {
    "ring": _ring,
    "fbfly": _fbfly,
    "dfbfly": _dfbfly,
    "ddfly": _ddfly,
    "sfbfly": partial(_sliced, "fbfly", 1),
    "smesh": partial(_sliced, "mesh", 1),
    "storus": partial(_sliced, "torus", 1),
    "smesh-2x": partial(_sliced, "mesh", 2),
    "storus-2x": partial(_sliced, "torus", 2),
    "overlay": partial(_overlay, "fbfly"),
    "overlay-smesh": partial(_overlay, "mesh"),
}


def build_topology(name: str, cfg: SystemConfig, include_cpu: bool = False) -> Topology:
    """Build the registered topology ``name`` over ``cfg``'s GPU clusters,
    plus the CPU's cluster when ``include_cpu``."""
    try:
        wire = BUILDERS[name]
    except KeyError:
        raise TopologyError(
            f"unknown topology {name!r}; available: {sorted(BUILDERS)}",
            topology=name,
        ) from None
    h = cfg.gpu.hmcs_per_gpu
    if h < 1:
        raise TopologyError("need at least one HMC per GPU", topology=name)
    num_routers = _num_clusters(cfg, include_cpu) * h
    topo = Topology(
        name,
        num_routers,
        cluster_of=[r // h for r in range(num_routers)],
        slice_of=[r % h for r in range(num_routers)],
        channel_gbps=cfg.network.channel_gbps,
    )
    wire(topo, cfg, include_cpu)
    return topo


# ---------------------------------------------------------------------------
# CMN network (Fig. 8(a))
# ---------------------------------------------------------------------------
def build_cmn(cfg: SystemConfig) -> Topology:
    """The CPU memory network: the CPU's local HMCs form a clique and every
    GPU attaches with :data:`CMN_GPU_CHANNELS` channels (replacing its PCIe
    link).  GPU local HMCs are *not* part of this network; they stay
    direct-attached and are modeled by the system builder."""
    h = cfg.gpu.hmcs_per_gpu
    topo = Topology(
        "cmn",
        h,
        cluster_of=[0] * h,
        slice_of=list(range(h)),
        channel_gbps=cfg.network.channel_gbps,
    )
    for a, b in clique_edges(list(range(h))):
        topo.add_link(a, b)
    width = direct_link_width(cfg, "cpu")
    for s in range(h):
        topo.attach_terminal("cpu", s, width=width)
    for g in range(cfg.num_gpus):
        for k in range(CMN_GPU_CHANNELS):
            topo.attach_terminal(f"gpu{g}", (g + k) % h, width=1)
    return topo
