"""Terrain substrate.

The paper's scale-up study drives its ray-tracing channel model with
USGS LiDAR point clouds rasterized to a 1 m heightmap (Section 5.1).
Those datasets are not redistributable here, so this package provides
(a) the same heightmap abstraction (:class:`Terrain`) and (b) procedural
generators that reproduce the *statistical features* of each terrain
the paper evaluates (campus testbed, RURAL, NYC, LARGE, and the four
Fig. 4 terrains).  Every terrain a run uses is procedural; no
point-cloud stage is modelled.
"""

from repro.terrain.heightmap import Terrain
from repro.terrain.generators import (
    TERRAIN_BUILDERS,
    make_campus,
    make_flat,
    make_large,
    make_nyc,
    make_rural,
    make_terrain,
    make_fig4_terrain,
)

__all__ = [
    "Terrain",
    "TERRAIN_BUILDERS",
    "make_campus",
    "make_flat",
    "make_large",
    "make_nyc",
    "make_rural",
    "make_terrain",
    "make_fig4_terrain",
]
