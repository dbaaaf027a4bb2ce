"""Topology builders (Figs. 11, 13, 16 of the paper)."""

from .builders import (
    BUILDERS,
    CMN_GPU_CHANNELS,
    build_cmn,
    build_topology,
    direct_link_width,
)
from .grids import (
    SLICE_STYLES,
    clique_edges,
    fbfly2d_edges,
    grid_shape,
    mesh2d_edges,
    ring_edges,
    slice_edges,
    torus2d_edges,
)

__all__ = [
    "BUILDERS",
    "CMN_GPU_CHANNELS",
    "build_cmn",
    "build_topology",
    "direct_link_width",
    "SLICE_STYLES",
    "clique_edges",
    "fbfly2d_edges",
    "grid_shape",
    "mesh2d_edges",
    "ring_edges",
    "slice_edges",
    "torus2d_edges",
]
