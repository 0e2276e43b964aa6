"""repro — a full reproduction of *SkyRAN: A Self-Organizing LTE RAN
in the Sky* (Chakraborty et al., CoNEXT 2018).

The public API re-exports the pieces a downstream user composes:

>>> from repro import Scenario, SkyRANController
>>> scenario = Scenario.create("campus", n_ues=7, cell_size=2.0)
>>> ctrl = SkyRANController(scenario.channel, scenario.enodeb)
>>> result = ctrl.run_epoch(budget_m=600.0)
>>> scenario.relative_throughput(result.placement.position)  # ~0.9+

See DESIGN.md for the subsystem inventory and EXPERIMENTS.md for the
per-figure reproduction index.
"""

from repro.channel import ChannelModel, LinkBudget
from repro.core import (
    EpochResult,
    EpochTrigger,
    SkyRANConfig,
    SkyRANController,
    find_optimal_altitude,
    max_min_placement,
)
from repro.baselines import CentroidController, UniformController
from repro.geo import GridSpec, Point3D
from repro.lte import ENodeB, SRSConfig, ToFEstimator, UE, throughput_mbps
from repro.rem import REM, idw_interpolate, median_abs_error_db
from repro.sim import Scenario, overhead_to_target, run_epochs
from repro.terrain import Terrain, make_terrain
from repro.trajectory import SkyRANPlanner, Trajectory

__version__ = "1.0.0"

__all__ = [
    "ChannelModel",
    "LinkBudget",
    "EpochResult",
    "EpochTrigger",
    "SkyRANConfig",
    "SkyRANController",
    "find_optimal_altitude",
    "max_min_placement",
    "CentroidController",
    "UniformController",
    "GridSpec",
    "Point3D",
    "ENodeB",
    "SRSConfig",
    "ToFEstimator",
    "UE",
    "throughput_mbps",
    "REM",
    "idw_interpolate",
    "median_abs_error_db",
    "Scenario",
    "overhead_to_target",
    "run_epochs",
    "Terrain",
    "make_terrain",
    "SkyRANPlanner",
    "Trajectory",
]
