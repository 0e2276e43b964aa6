"""User equipment model.

A :class:`UE` is a ground device served by the SkyRAN eNodeB.  It
carries an identity, a true position the simulator knows (and the UAV
must *estimate*) and the SRS root its uplink sounding uses.  Whether
it is attached is the eNodeB's registered set, not UE state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.geo.points import Point3D

#: Default UE antenna height above local ground, meters.
UE_ANTENNA_HEIGHT_M = 1.5


@dataclass
class UE:
    """A ground UE.

    Attributes
    ----------
    ue_id:
        Small integer identity used throughout the simulator.
    position:
        True position in the ENU frame (z = antenna height above
        datum, i.e. local ground height + ~1.5 m).
    srs_root:
        Zadoff-Chu root assigned to this UE's SRS so concurrent UEs
        are separable at the eNodeB.
    """

    ue_id: int
    position: Point3D = field(default_factory=lambda: Point3D(0.0, 0.0, UE_ANTENNA_HEIGHT_M))
    srs_root: int = 25

    @property
    def xyz(self) -> np.ndarray:
        """Position as a ``(3,)`` array."""
        return self.position.as_array()

    def move_to(self, x: float, y: float, z: Optional[float] = None) -> None:
        """Teleport the UE (mobility models call this per step)."""
        self.position = Point3D(x, y, self.position.z if z is None else z)
