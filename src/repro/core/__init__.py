"""SkyRAN core: the paper's primary contribution.

Ties the substrates together into the epoch loop of Fig. 10:
localization flight -> UE localization -> (first epoch) optimal
-altitude search -> REM lookup/seed -> measurement-trajectory planning
-> measurement flight -> REM update -> max-min placement -> serve, and
re-trigger on aggregate performance drop.
"""

from repro.core.config import SkyRANConfig
from repro.core.placement import (
    PlacementResult,
    find_optimal_altitude,
    max_min_placement,
)
from repro.core.rem_store import REMStore
from repro.core.epoch import EpochTrigger
from repro.core.controller import EpochResult, SkyRANController
from repro.core.fleet import (
    FleetController,
    FleetEpochResult,
    FleetEvaluation,
    SectorAssignment,
)

__all__ = [
    "FleetController",
    "FleetEpochResult",
    "FleetEvaluation",
    "SectorAssignment",
    "SkyRANConfig",
    "PlacementResult",
    "find_optimal_altitude",
    "max_min_placement",
    "REMStore",
    "EpochTrigger",
    "EpochResult",
    "SkyRANController",
]
