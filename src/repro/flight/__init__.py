"""UAV flight simulation.

Replaces the DJI M600Pro + OnBoard SDK stack: a waypoint-following
kinematic model with a battery drain profile (forward flight costs
more than hover, Section 2.5), 50 Hz GPS fixes with realistic noise,
and the two samplers that ride along — the 100 Hz SRS/ToF receive
chain used by localization flights and the 100 Hz SNR reporter used by
REM measurement flights.
"""

from repro.flight.uav import UAV, Battery, FlightLog
from repro.flight.sampler import (
    collect_gps_ranges,
    collect_snr_samples,
    localize_all_ues,
)

__all__ = [
    "UAV",
    "Battery",
    "FlightLog",
    "collect_gps_ranges",
    "collect_snr_samples",
    "localize_all_ues",
]
