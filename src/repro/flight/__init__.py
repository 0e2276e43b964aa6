"""UAV flight simulation.

Replaces the DJI M600Pro + OnBoard SDK stack: a waypoint-following
kinematic model whose flight time is proportional to trajectory
length, 50 Hz GPS fixes with realistic noise,
and the two samplers that ride along — the 100 Hz SRS/ToF receive
chain used by localization flights and the 100 Hz SNR reporter used by
REM measurement flights.
"""

from repro.flight.uav import UAV, FlightLog
from repro.flight.sampler import (
    collect_gps_ranges,
    collect_snr_samples,
    localize_all_ues,
)

__all__ = [
    "UAV",
    "FlightLog",
    "collect_gps_ranges",
    "collect_snr_samples",
    "localize_all_ues",
]
