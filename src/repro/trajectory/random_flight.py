"""The short random localization flight that opens each epoch.

SkyRAN "executes a short random flight trajectory during which it
records LTE's PHY-layer Synchronization Reference Signals" (paper
Section 1).  The flight needs spatial diversity — turns, not a straight
line — because multilateration geometry degrades when all anchors are
collinear.  We draw random waypoints inside a box around the start
point until the requested length is reached.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geo.grid import GridSpec
from repro.trajectory.base import Trajectory


def random_flight(
    grid: GridSpec,
    start_xy: Sequence[float],
    length_m: float,
    altitude: float,
    rng: np.random.Generator,
    leg_m: float = 5.0,
    box_m: float = 40.0,
    label: str = "localization",
) -> Trajectory:
    """A random multi-leg flight of approximately ``length_m`` meters.

    Parameters
    ----------
    grid:
        Operating area; waypoints are clamped inside it.
    start_xy:
        Take-off point of the flight (usually the UAV's current hover).
    length_m:
        Target flight length (the paper uses ~20 m; Fig. 19 shows
        accuracy saturates there).
    altitude:
        Flight altitude.
    rng:
        Random generator the waypoints are drawn from.
    leg_m:
        Mean leg length between direction changes.
    box_m:
        Half-width of the box around the start the flight stays in —
        localization flights are deliberately local so they are cheap.
    """
    if length_m <= 0:
        raise ValueError(f"length_m must be positive, got {length_m}")
    if leg_m <= 0:
        raise ValueError(f"leg_m must be positive, got {leg_m}")
    start = np.asarray(start_xy, dtype=float).reshape(2)
    lo = np.array(
        [max(grid.origin_x, start[0] - box_m), max(grid.origin_y, start[1] - box_m)]
    )
    hi = np.array(
        [min(grid.max_x, start[0] + box_m), min(grid.max_y, start[1] + box_m)]
    )
    waypoints = [grid.clamp(*start)]
    total = 0.0
    current = np.asarray(waypoints[0])
    heading = rng.uniform(0.0, 2 * np.pi)
    while total < length_m:
        # Correlated random walk: turn up to +/- 120 degrees per leg.
        heading += rng.uniform(-2 * np.pi / 3, 2 * np.pi / 3)
        step = rng.uniform(0.5 * leg_m, 1.5 * leg_m)
        nxt = current + step * np.array([np.cos(heading), np.sin(heading)])
        nxt = np.clip(nxt, lo, hi)
        moved = float(np.hypot(*(nxt - current)))
        if moved < 1e-6:
            # Bounced off the box corner; pick a fresh heading.
            heading = rng.uniform(0.0, 2 * np.pi)
            continue
        waypoints.append((float(nxt[0]), float(nxt[1])))
        total += moved
        current = nxt
    traj = Trajectory(np.asarray(waypoints), altitude, label)
    return traj.truncated(length_m)
