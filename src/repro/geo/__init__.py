"""Geometric primitives and algorithms used across SkyRAN.

This package is a dependency-light substrate: a quantized 2D grid (the
paper quantizes the operating area into 1 m x 1 m cells, Section 3.3),
point helpers, Lloyd's K-means with k-means++ seeding (trajectory
clustering, Step 6.3), a travelling-salesman heuristic (Step 6.4) and
polyline utilities used by every flight trajectory.
"""

from repro.geo.grid import GridSpec
from repro.geo.points import (
    Point3D,
    as_xy_array,
    as_xyz_array,
    pairwise_distances,
    polyline_length,
)
from repro.geo.kmeans import KMeansResult, kmeans
from repro.geo.tsp import solve_tsp, tour_length
from repro.geo.paths import (
    point_to_polyline_distance,
    polyline_to_polyline_distance,
    resample_polyline,
    truncate_polyline,
)

__all__ = [
    "GridSpec",
    "Point3D",
    "as_xy_array",
    "as_xyz_array",
    "pairwise_distances",
    "polyline_length",
    "KMeansResult",
    "kmeans",
    "solve_tsp",
    "tour_length",
    "point_to_polyline_distance",
    "polyline_to_polyline_distance",
    "resample_polyline",
    "truncate_polyline",
]
