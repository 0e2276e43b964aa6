"""UE mobility models.

The paper exercises three kinds of UE dynamics: static testbed UEs
(Section 4; a cell with no mobility model), scripted pedestrian-like routes for the epoch-length study
(Fig. 12), and per-epoch random relocation of a fraction of UEs in the
scale-up simulations (Section 5.2).  All models share one interface:
``step(ue, dt_s, rng)`` advances a UE's position in simulated time.
"""

from repro.mobility.models import (
    ClusterMobility,
    MobilityModel,
    RandomWaypoint,
    ScriptedRoute,
    relocate_fraction,
)

__all__ = [
    "MobilityModel",
    "RandomWaypoint",
    "ScriptedRoute",
    "ClusterMobility",
    "relocate_fraction",
]
