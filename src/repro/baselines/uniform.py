"""The Uniform baseline.

Uniform is measurement-based but location-blind: it spends its whole
budget on a fixed zigzag sweep of the operating area (starting at a
corner), builds per-UE REMs from the sweep's samples, and then applies
the same max-min placement as SkyRAN.  Comparing it against SkyRAN
isolates the value of *UE-location-aware* probing (Figs. 20, 23-24,
26-31).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.channel.model import ChannelModel
from repro.core.config import (
    UNCERTAINTY_PENALTY_CAP_DB,
    UNCERTAINTY_PENALTY_DB_PER_M,
    SkyRANConfig,
)
from repro.core.placement import PlacementResult
from repro.faults.injector import FaultInjector, as_injector
from repro.flight.sampler import collect_snr_samples
from repro.flight.uav import UAV
from repro.geo.grid import GridSpec
from repro.lte.enodeb import ENodeB
from repro.rem.map import REM
from repro.rem.streaming import streamed_discounted_max_min_placement
from repro.trajectory.uniform import zigzag_trajectory


@dataclass(frozen=True)
class UniformEpochResult:
    """Outcome of one Uniform epoch."""

    placement: PlacementResult
    rem_maps: Dict[int, np.ndarray]
    flight_distance_m: float
    flight_time_s: float


@dataclass
class UniformController:
    """Zigzag-sweep measurement + max-min placement, no UE locations.

    REM state persists across epochs (Uniform may refine its maps with
    every sweep), but there is no location-aware reuse because Uniform
    never knows where the UEs are.
    """

    channel: ChannelModel
    enodeb: ENodeB
    config: SkyRANConfig = field(default_factory=SkyRANConfig)
    rem_grid: Optional[GridSpec] = None
    uav: Optional[UAV] = None
    altitude: Optional[float] = None
    #: Row pitch of the sweep.  Uniform flies a *dense* lawnmower from
    #: the corner and simply stops when the budget runs out (the paper:
    #: "an exhaustive search path that begins at one corner and
    #: systematically explores") — it does not thin its rows to spread
    #: a small budget over the whole area, because without UE locations
    #: it has no basis to trade density for reach.
    row_spacing_m: float = 15.0
    seed: int = 0
    faults: Optional[FaultInjector] = None

    def __post_init__(self) -> None:
        if self.rem_grid is None:
            self.rem_grid = self.config.rem_grid_for(self.channel.terrain.grid)
        if self.uav is None:
            self.uav = UAV(
                position=np.array(
                    [self.rem_grid.origin_x, self.rem_grid.origin_y, 60.0]
                )
            )
        if self.altitude is None:
            # Without a location-driven altitude search, Uniform flies a
            # sensible fixed altitude (benches pass SkyRAN's altitude
            # for a like-for-like comparison).
            self.altitude = 60.0
        self.faults = as_injector(self.faults)
        self.rng = np.random.default_rng(self.seed)
        self._rems: Dict[int, REM] = {}
        self._epoch = 0

    def run_epoch(self, budget_m: Optional[float] = None) -> UniformEpochResult:
        """One sweep-and-place cycle.

        Successive epochs interleave their zigzag rows (golden-ratio
        offset) so repeated sweeps refine coverage instead of
        retracing the identical path.
        """
        budget = budget_m if budget_m is not None else self.config.measurement_budget_m
        t_start = self.uav.clock_s
        # Offset grows by the golden ratio of the row spacing per epoch
        # so successive sweeps interleave instead of retracing.
        spacing = self.row_spacing_m
        offset = (self._epoch * 0.618 * spacing) % spacing if self._epoch else 0.0
        self._epoch += 1
        traj = zigzag_trajectory(
            self.rem_grid, spacing, self.altitude, row_offset_m=offset
        ).truncated(budget)
        log = self.uav.fly(traj, self.rng, faults=self.faults)
        distance = log.distance_m

        ues = self.enodeb.connected_ues()
        samples = collect_snr_samples(
            log, ues, self.channel, self.rng, faults=self.faults
        )
        for ue, (xy, snr) in zip(ues, samples):
            rem = self._rems.get(ue.ue_id)
            if rem is None:
                # No locations, no FSPL seed: the prior needs a UE
                # position that Uniform does not have.
                rem = REM(self.rem_grid, ue.xyz * np.nan, self.altitude, prior=None)
                self._rems[ue.ue_id] = rem
            if len(snr):
                rem.add_measurements(xy, snr)

        # SkyRAN's Step 8, discount included (fairness: both schemes
        # suffer the same argmax-selects-optimism bias).
        ids = sorted(self._rems)
        placement, maps = streamed_discounted_max_min_placement(
            self.rem_grid,
            [self._rems[ue_id] for ue_id in ids],
            self.altitude,
            penalty_rate_db_per_m=UNCERTAINTY_PENALTY_DB_PER_M,
            penalty_cap_db=UNCERTAINTY_PENALTY_CAP_DB,
            collect_maps=True,
        )
        move_log = self.uav.goto(placement.position.as_array(), self.rng, faults=self.faults)
        distance += move_log.distance_m
        return UniformEpochResult(
            placement=placement,
            rem_maps=dict(zip(ids, maps)),
            flight_distance_m=distance,
            flight_time_s=self.uav.clock_s - t_start,
        )
