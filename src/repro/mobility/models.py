"""Mobility model implementations."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.geo.grid import GridSpec
from repro.lte.ue import UE
from repro.perf import perf

#: Pedestrian walking speed, m/s (the paper's Fig. 12 routes are
#: "scripted to closely mimic human mobility").
WALK_SPEED_MPS = 1.4


class MobilityModel(ABC):
    """Advances UE positions through simulated time."""

    @abstractmethod
    def step(self, ue: UE, dt_s: float, rng: np.random.Generator) -> None:
        """Move one UE forward by ``dt_s`` seconds."""

    def forget(self, ue_id: int) -> None:
        """Drop any per-UE state held for ``ue_id``.

        Mirrors ``OLLA.forget``: deregistration calls this so detached
        or churned UEs do not pin waypoint/route/dwell state forever,
        and a re-attached UE id starts its motion fresh.  The base
        implementation is a no-op for stateless models.
        """


@dataclass
class RandomWaypoint(MobilityModel):
    """Classic random-waypoint motion inside the operating area.

    Pick a uniform destination, walk to it at ``speed_mps``, pause,
    repeat.  Per-UE state is kept internally, keyed by UE id.
    """

    grid: GridSpec
    speed_mps: float = WALK_SPEED_MPS
    pause_s: float = 30.0
    _targets: dict = field(default_factory=dict)
    _pauses: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.speed_mps <= 0:
            raise ValueError(f"speed_mps must be positive, got {self.speed_mps}")
        if self.pause_s < 0:
            raise ValueError(f"pause_s must be >= 0, got {self.pause_s}")

    def forget(self, ue_id: int) -> None:
        self._targets.pop(ue_id, None)
        self._pauses.pop(ue_id, None)

    def step(self, ue: UE, dt_s: float, rng: np.random.Generator) -> None:
        if dt_s < 0:
            raise ValueError(f"dt_s must be >= 0, got {dt_s}")
        remaining = dt_s
        while remaining > 0:
            pause_left = self._pauses.get(ue.ue_id, 0.0)
            if pause_left > 0:
                wait = min(pause_left, remaining)
                self._pauses[ue.ue_id] = pause_left - wait
                remaining -= wait
                continue
            target = self._targets.get(ue.ue_id)
            if target is None:
                target = np.array(
                    [
                        rng.uniform(self.grid.origin_x, self.grid.max_x),
                        rng.uniform(self.grid.origin_y, self.grid.max_y),
                    ]
                )
                self._targets[ue.ue_id] = target
            pos = np.array([ue.position.x, ue.position.y])
            to_go = float(np.hypot(*(target - pos)))
            reachable = self.speed_mps * remaining
            if reachable >= to_go:
                ue.move_to(float(target[0]), float(target[1]))
                remaining -= to_go / self.speed_mps
                del self._targets[ue.ue_id]
                self._pauses[ue.ue_id] = self.pause_s
            else:
                direction = (target - pos) / max(to_go, 1e-9)
                new = pos + direction * reachable
                ue.move_to(float(new[0]), float(new[1]))
                remaining = 0.0


@dataclass
class ScriptedRoute(MobilityModel):
    """Walk back and forth along a fixed polyline route.

    Mimics the Fig. 12 setup where UEs "move along certain predefined
    routes (scripted to closely mimic human mobility)".
    """

    route: np.ndarray
    speed_mps: float = WALK_SPEED_MPS
    _progress: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.speed_mps <= 0:
            raise ValueError(f"speed_mps must be positive, got {self.speed_mps}")
        self.route = np.asarray(self.route, dtype=float).reshape(-1, 2)
        if len(self.route) < 2:
            raise ValueError("route needs at least two vertices")
        seg = np.diff(self.route, axis=0)
        self._seg_len = np.hypot(seg[:, 0], seg[:, 1])
        self._cum = np.concatenate([[0.0], np.cumsum(self._seg_len)])
        self._total = float(self._cum[-1])
        if self._total <= 0:
            raise ValueError("route has zero length")

    def _position_at(self, arc: float) -> np.ndarray:
        # Reflect the arc coordinate to ping-pong along the route.
        period = 2.0 * self._total
        a = arc % period
        if a > self._total:
            a = period - a
        x = np.interp(a, self._cum, self.route[:, 0])
        y = np.interp(a, self._cum, self.route[:, 1])
        return np.array([x, y])

    def step(self, ue: UE, dt_s: float, rng: np.random.Generator) -> None:
        del rng
        if dt_s < 0:
            raise ValueError(f"dt_s must be >= 0, got {dt_s}")
        arc = self._progress.get(ue.ue_id, 0.0) + self.speed_mps * dt_s
        self._progress[ue.ue_id] = arc
        pos = self._position_at(arc)
        ue.move_to(float(pos[0]), float(pos[1]))

    def forget(self, ue_id: int) -> None:
        self._progress.pop(ue_id, None)


@dataclass
class ClusterMobility(MobilityModel):
    """UEs hop between a fixed set of gathering spots.

    Models crowd dynamics (stadium gates, concert stages): a UE stays
    at a spot for an exponential dwell time, then relocates near a
    (possibly different) spot.
    """

    spots: np.ndarray
    dwell_mean_s: float = 600.0
    jitter_m: float = 8.0
    _until: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.spots = np.asarray(self.spots, dtype=float).reshape(-1, 2)
        if len(self.spots) == 0:
            raise ValueError("need at least one spot")

    def step(self, ue: UE, dt_s: float, rng: np.random.Generator) -> None:
        if dt_s < 0:
            raise ValueError(f"dt_s must be >= 0, got {dt_s}")
        left = self._until.get(ue.ue_id, 0.0) - dt_s
        if left <= 0:
            spot = self.spots[rng.integers(len(self.spots))]
            offset = rng.normal(0.0, self.jitter_m, 2)
            ue.move_to(float(spot[0] + offset[0]), float(spot[1] + offset[1]))
            left = rng.exponential(self.dwell_mean_s)
        self._until[ue.ue_id] = left

    def forget(self, ue_id: int) -> None:
        self._until.pop(ue_id, None)


def relocate_fraction(
    ues: Sequence[UE],
    fraction: float,
    grid: GridSpec,
    rng: np.random.Generator,
    clearance_check=None,
) -> List[int]:
    """Teleport a random fraction of UEs to fresh uniform positions.

    This is the Section 5.2 dynamics model ("in each epoch, half of
    the UEs are randomly moved to different positions").  Returns the
    ids of the moved UEs.

    ``clearance_check(x, y) -> bool`` can veto positions (e.g. inside
    buildings); up to 100 draws per UE.  A UE whose every draw is
    vetoed stays where it is (``mobility.clearance_giveup`` counts the
    give-ups) rather than being teleported to a vetoed position.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    ues = list(ues)
    n_move = int(round(fraction * len(ues)))
    if n_move == 0:
        return []
    picked = rng.choice(len(ues), size=n_move, replace=False)
    moved = []
    for i in picked:
        for _ in range(100):
            x = rng.uniform(grid.origin_x, grid.max_x)
            y = rng.uniform(grid.origin_y, grid.max_y)
            if clearance_check is None or clearance_check(x, y):
                break
        else:
            perf.count("mobility.clearance_giveup")
            continue
        ues[i].move_to(x, y)
        moved.append(ues[i].ue_id)
    return moved
