"""The Trajectory container.

Wraps a 2D waypoint polyline plus the altitude it is flown at, with
the arc-length operations every consumer needs (length for cost,
resampling for probe points, truncation for measurement budgets).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo.paths import resample_polyline, truncate_polyline
from repro.geo.points import polyline_length


@dataclass(frozen=True)
class Trajectory:
    """A flight path at constant altitude.

    Attributes
    ----------
    waypoints:
        ``(n, 2)`` polyline vertices in the ground plane (meters).
    altitude:
        Flight altitude in meters.
    label:
        Scheme tag for logs/plots (``"skyran"``, ``"uniform"``, ...).
    """

    waypoints: np.ndarray
    altitude: float
    label: str = ""

    def __post_init__(self) -> None:
        wp = np.asarray(self.waypoints, dtype=float).reshape(-1, 2)
        if len(wp) == 0:
            raise ValueError("a trajectory needs at least one waypoint")
        object.__setattr__(self, "waypoints", wp)
        if self.altitude < 0:
            raise ValueError(f"altitude must be >= 0, got {self.altitude}")

    @property
    def length_m(self) -> float:
        """Total arc length (the paper's trajectory *cost*)."""
        return polyline_length(self.waypoints)

    def sample(self, spacing_m: float) -> np.ndarray:
        """Evenly spaced probe points along the path, ``(m, 2)``."""
        return resample_polyline(self.waypoints, spacing_m)

    def truncated(self, budget_m: float) -> "Trajectory":
        """The prefix of this path with at most ``budget_m`` length."""
        wp = truncate_polyline(self.waypoints, budget_m)
        return Trajectory(wp, self.altitude, self.label)

    def end(self) -> np.ndarray:
        return self.waypoints[-1].copy()
