"""UAV-optimized UE localization (paper Section 3.2).

The UAV's motion turns a single eNodeB into a synthetic aperture: SRS
-derived ranges from many points along a short random flight are fused
by multilateration.  Because onboard ToF processing adds an unknown
constant delay, the range offset is estimated *jointly* with the UE
position (offset-augmented least squares, one offset shared by every
UE of the flight, solved by SciPy trust-region least squares with a
Huber loss against NLOS outliers).
"""

from repro.localization.ranging import (
    GpsRange,
    aggregate_tof_to_gps,
    mad_filter,
)
from repro.localization.calibration import OffsetCalibrator
from repro.localization.joint import (
    JointLocalizationResult,
    MultilaterationResult,
    solve_joint_multilateration,
)

__all__ = [
    "GpsRange",
    "aggregate_tof_to_gps",
    "mad_filter",
    "MultilaterationResult",
    "JointLocalizationResult",
    "solve_joint_multilateration",
    "OffsetCalibrator",
]
