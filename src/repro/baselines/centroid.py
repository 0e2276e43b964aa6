"""The Centroid baseline.

Centroid is location-aware but measurement-blind: it localizes the UEs
(same SRS/multilateration pipeline as SkyRAN) and then simply hovers
over their centroid.  Fig. 3 and Fig. 21 show why that is not enough —
terrain obstructions make the geometric center a poor radio choice,
costing 40-60% of the optimal throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.channel.model import ChannelModel
from repro.core.config import (
    LOCALIZATION_FLIGHT_M,
    LOCALIZATION_SPEED_MPS,
    SkyRANConfig,
)
from repro.faults.injector import FaultInjector, as_injector
from repro.flight.sampler import localize_all_ues
from repro.perf import perf
from repro.flight.uav import UAV
from repro.geo.grid import GridSpec
from repro.geo.points import Point3D
from repro.lte.enodeb import ENodeB
from repro.lte.tof import ToFEstimator
from repro.trajectory.random_flight import random_flight


@dataclass(frozen=True)
class CentroidEpochResult:
    """Outcome of one Centroid epoch."""

    position: Point3D
    ue_estimates: Dict[int, np.ndarray]
    flight_distance_m: float
    flight_time_s: float


@dataclass
class CentroidController:
    """Localize, then hover at the centroid of the UE estimates."""

    channel: ChannelModel
    enodeb: ENodeB
    config: SkyRANConfig = field(default_factory=SkyRANConfig)
    rem_grid: Optional[GridSpec] = None
    uav: Optional[UAV] = None
    altitude: float = 60.0
    seed: int = 0
    faults: Optional[FaultInjector] = None

    def __post_init__(self) -> None:
        terrain_grid = self.channel.terrain.grid
        if self.rem_grid is None:
            self.rem_grid = terrain_grid
        if self.uav is None:
            cx = terrain_grid.origin_x + terrain_grid.width / 2
            cy = terrain_grid.origin_y + terrain_grid.height / 2
            self.uav = UAV(position=np.array([cx, cy, self.altitude]))
        self.faults = as_injector(self.faults)
        self.rng = np.random.default_rng(self.seed)
        self.estimator = ToFEstimator(self.enodeb.srs_config)
        self._last_estimates: Dict[int, np.ndarray] = {}

    def run_epoch(self, budget_m: Optional[float] = None) -> CentroidEpochResult:
        """Localization flight, then move to the centroid.

        ``budget_m`` is accepted (so every scheme shares the
        :func:`~repro.sim.runner.run_epochs` driver) but unused:
        Centroid flies no measurement trajectory to budget.
        """
        t_start = self.uav.clock_s
        traj = random_flight(
            self.rem_grid,
            self.uav.position[:2],
            LOCALIZATION_FLIGHT_M,
            altitude=float(self.uav.position[2]),
            rng=self.rng,
        )
        cruise = self.uav.speed_mps
        self.uav.speed_mps = LOCALIZATION_SPEED_MPS
        try:
            log = self.uav.fly(traj, self.rng, faults=self.faults)
        finally:
            self.uav.speed_mps = cruise
        distance = log.distance_m

        ues = self.enodeb.connected_ues()
        if not ues:
            raise RuntimeError("no connected UEs to serve")
        margin = 20.0
        bounds = (
            (self.rem_grid.origin_x - margin, self.rem_grid.max_x + margin),
            (self.rem_grid.origin_y - margin, self.rem_grid.max_y + margin),
        )
        joint = localize_all_ues(
            log,
            ues,
            self.channel,
            self.enodeb,
            self.estimator,
            self.rng,
            bounds_xy=bounds,
            faults=self.faults,
        )
        estimates: Dict[int, np.ndarray] = {}
        for ue in ues:
            result = joint.per_ue.get(ue.ue_id)
            if result is not None:
                estimates[ue.ue_id] = result.position
            elif ue.ue_id in self._last_estimates:
                # Starved under faults: hover plans fall back to the
                # last position this UE was seen at.
                perf.count("fallback.reuse_last_estimate")
                estimates[ue.ue_id] = self._last_estimates[ue.ue_id]
        if not estimates:
            # Nothing localizable at all this epoch: hold position.
            perf.count("fallback.blind_estimate")
            estimates = {
                ue.ue_id: np.asarray(self.uav.position, dtype=float) for ue in ues
            }
        self._last_estimates.update(estimates)

        centroid = np.mean([p[:2] for p in estimates.values()], axis=0)
        position = Point3D(float(centroid[0]), float(centroid[1]), self.altitude)
        move_log = self.uav.goto(position.as_array(), self.rng, faults=self.faults)
        distance += move_log.distance_m
        return CentroidEpochResult(
            position=position,
            ue_estimates=estimates,
            flight_distance_m=distance,
            flight_time_s=self.uav.clock_s - t_start,
        )
