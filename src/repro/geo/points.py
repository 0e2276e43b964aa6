"""Point types and small vector helpers.

SkyRAN works in a local east-north-up (ENU) frame: ``x`` grows east,
``y`` grows north and ``z`` is the height above the terrain datum, all
in meters.  The UAV GPS fixes and UE positions are expressed in this
frame throughout the code base.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class Point3D:
    """A 3D position in meters (east, north, up)."""

    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


def as_xy_array(points: Iterable) -> np.ndarray:
    """Convert an iterable of 2D/3D points into an ``(n, 2)`` float array.

    Accepts :class:`Point3D`, tuples or array rows; only the first two
    coordinates are kept.
    """
    rows = []
    for p in points:
        if isinstance(p, Point3D):
            rows.append((p.x, p.y))
        else:
            seq = tuple(p)
            rows.append((float(seq[0]), float(seq[1])))
    if not rows:
        return np.empty((0, 2), dtype=float)
    return np.asarray(rows, dtype=float)


def as_xyz_array(points: Iterable) -> np.ndarray:
    """Convert an iterable of 3D points into an ``(n, 3)`` float array.

    2D inputs are lifted to ``z = 0``.
    """
    rows = []
    for p in points:
        if isinstance(p, Point3D):
            rows.append((p.x, p.y, p.z))
        else:
            seq = tuple(p)
            if len(seq) == 2:
                rows.append((float(seq[0]), float(seq[1]), 0.0))
            else:
                rows.append((float(seq[0]), float(seq[1]), float(seq[2])))
    if not rows:
        return np.empty((0, 3), dtype=float)
    return np.asarray(rows, dtype=float)


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of Euclidean distances between rows of ``a`` and ``b``.

    Both inputs are ``(n, d)`` / ``(m, d)`` arrays; the result is
    ``(n, m)``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def polyline_length(points: Sequence) -> float:
    """Total length of a polyline given as a sequence of points (meters)."""
    arr = as_xy_array(points)
    if len(arr) < 2:
        return 0.0
    seg = np.diff(arr, axis=0)
    return float(np.sum(np.hypot(seg[:, 0], seg[:, 1])))
