"""User equipment model.

A :class:`UE` is a ground device attached to the SkyRAN eNodeB.  It
carries an identity (IMSI), a true position the simulator knows (and
the UAV must *estimate*), and an RRC-ish state machine driven by the
EPC attach procedure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from repro.geo.points import Point3D

#: Default UE antenna height above local ground, meters.
UE_ANTENNA_HEIGHT_M = 1.5


class UEState(Enum):
    """RRC/EMM composite state of a UE, simplified."""

    DETACHED = "detached"
    ATTACHING = "attaching"
    CONNECTED = "connected"
    IDLE = "idle"


@dataclass
class UE:
    """A ground UE.

    Attributes
    ----------
    ue_id:
        Small integer identity used throughout the simulator.
    imsi:
        Subscriber identity (used by the EPC attach procedure).
    position:
        True position in the ENU frame (z = antenna height above
        datum, i.e. local ground height + ~1.5 m).
    state:
        Attach state; measurement flights only see CONNECTED UEs.
    srs_root:
        Zadoff-Chu root assigned to this UE's SRS so concurrent UEs
        are separable at the eNodeB.
    """

    ue_id: int
    imsi: str = ""
    position: Point3D = field(default_factory=lambda: Point3D(0.0, 0.0, UE_ANTENNA_HEIGHT_M))
    state: UEState = UEState.DETACHED
    srs_root: int = 25

    def __post_init__(self) -> None:
        if not self.imsi:
            self.imsi = f"00101{self.ue_id:010d}"

    @property
    def xyz(self) -> np.ndarray:
        """Position as a ``(3,)`` array."""
        return self.position.as_array()

    def move_to(self, x: float, y: float, z: Optional[float] = None) -> None:
        """Teleport the UE (mobility models call this per step)."""
        self.position = Point3D(x, y, self.position.z if z is None else z)
