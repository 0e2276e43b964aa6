"""UAV kinematics and GPS.

The model is deliberately simple — constant-speed waypoint following —
because SkyRAN's algorithms only consume (time, position) streams and
a cost structure where flight time is proportional to trajectory
length.  That is the property the paper's overhead arguments rest on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.trajectory.base import Trajectory

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector

#: Paper's measurement-flight ground speed (Section 4.5.2): 30 km/h.
DEFAULT_SPEED_MPS = 30.0 / 3.6

#: GPS horizontal accuracy the paper quotes for the platform: 1-5 m.
DEFAULT_GPS_NOISE_STD_M = 1.5

#: GPS fix rate (Section 3.2.1).
GPS_RATE_HZ = 50.0

#: Correlation time of the GPS error process.  GNSS error is not white:
#: the flight controller fuses GNSS with IMU dead-reckoning, so the
#: reported track is locally rigid — the error is a slowly wandering
#: offset (atmospheric delays, constellation geometry) rather than
#: per-fix scatter.  An Ornstein-Uhlenbeck error with a ~5 min time
#: constant gives a near-constant offset over a localization flight
#: with only decimeter-scale drift across its aperture, matching the
#: relative/absolute accuracy split of fused GNSS+IMU estimators.
GPS_ERROR_TAU_S = 300.0


def sample_count(duration_s: float, rate_hz: float) -> int:
    """Samples in ``[0, duration_s]`` at ``rate_hz``, both ends included.

    ``duration_s * rate_hz`` is floored after a one-microsample slack,
    so a flight whose duration is a whole number of periods (a tour
    truncated to its budget is) gets its end sample whichever way the
    product rounds.  Without the slack a 1e-13 m change in where the
    flight starts can drop that sample and shift every later draw.
    """
    return max(2, int(duration_s * rate_hz + 1e-6) + 1)


@dataclass(frozen=True)
class FlightLog:
    """Time-stamped record of one flight.

    Attributes
    ----------
    t_s:
        ``(n,)`` GPS timestamps (50 Hz).
    true_xyz:
        ``(n, 3)`` true UAV positions.
    gps_xyz:
        ``(n, 3)`` noisy GPS fixes of the same instants.
    distance_m:
        Total distance flown.
    """

    t_s: np.ndarray
    true_xyz: np.ndarray
    gps_xyz: np.ndarray
    distance_m: float
    #: Per-fix validity: False where the fix fell in a GPS blackout
    #: (the reported position is the frozen last-valid fix).  None
    #: means every fix is valid — the fault-free common case.
    gps_valid: Optional[np.ndarray] = None

    @property
    def duration_s(self) -> float:
        return float(self.t_s[-1] - self.t_s[0]) if len(self.t_s) > 1 else 0.0

    def __len__(self) -> int:
        return len(self.t_s)


@dataclass
class UAV:
    """The flight platform.

    Attributes
    ----------
    position:
        Current true position ``(3,)``.
    speed_mps:
        Cruise speed for waypoint legs.
    gps_noise_std_m:
        Std of the horizontal GPS error (vertical error is half).
    clock_s:
        Mission clock; advances with every flight.
    """

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    speed_mps: float = DEFAULT_SPEED_MPS
    gps_noise_std_m: float = DEFAULT_GPS_NOISE_STD_M
    clock_s: float = 0.0

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=float).reshape(3)
        if self.speed_mps <= 0:
            raise ValueError(f"speed_mps must be positive, got {self.speed_mps}")

    def _gps_of(
        self, true_xyz: np.ndarray, t_s: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Time-correlated (OU) GPS error around the true track.

        One standard-normal triple per fix, drawn as one ``(n, 3)``
        block (the stream of one size-3 draw per fix).  The recurrence
        runs over Python floats, which round each product and sum as
        float64 arrays do; the decay comes from ``np.exp``, because
        ``math.exp`` differs from it in the last ulp on some inputs.
        """
        sigma = np.array(
            [self.gps_noise_std_m, self.gps_noise_std_m, 0.5 * self.gps_noise_std_m]
        )
        noise = rng.normal(0.0, 1.0, (len(true_xyz), 3)).tolist()
        rho = np.exp(-np.maximum(np.diff(t_s), 0.0) / GPS_ERROR_TAU_S)
        scale = np.sqrt(np.maximum(1.0 - rho * rho, 0.0))
        prev = noise[0]
        for i, (r, s) in enumerate(zip(rho.tolist(), scale.tolist()), start=1):
            prev = noise[i] = [r * p + s * z for p, z in zip(prev, noise[i])]
        return true_xyz + np.array(noise) * sigma[None, :]

    def fly(
        self,
        trajectory: Trajectory,
        rng: np.random.Generator,
        faults: Optional["FaultInjector"] = None,
    ) -> FlightLog:
        """Fly a trajectory from the current position; return the log.

        The UAV first cuts to the trajectory start (that leg is part of
        the log and the cost), then follows the waypoints at cruise
        speed, emitting 50 Hz fixes.

        ``faults`` (a :class:`~repro.faults.injector.FaultInjector`)
        perturbs the flight: wind drift displaces the *true* track off
        the commanded path, and GPS blackouts freeze fixes at the last
        valid position (flagged in :attr:`FlightLog.gps_valid`).  With
        ``faults=None`` the flight is bit-identical to the fault-free
        model.
        """
        wp = np.column_stack(
            [
                trajectory.waypoints,
                np.full(len(trajectory.waypoints), trajectory.altitude),
            ]
        )
        path = np.vstack([self.position[None, :], wp])
        seg = np.diff(path, axis=0)
        seg_len = np.linalg.norm(seg, axis=1)
        total = float(seg_len.sum())
        duration = total / self.speed_mps
        n_fix = sample_count(duration, GPS_RATE_HZ)
        t = np.linspace(0.0, duration, n_fix)
        cum = np.concatenate([[0.0], np.cumsum(seg_len)])
        arc = t * self.speed_mps
        true = np.column_stack(
            [np.interp(arc, cum, path[:, i]) for i in range(3)]
        )
        if faults is not None:
            drift = faults.wind_offsets(t)
            if drift is not None:
                # The controller commands waypoints; the wind decides
                # where the airframe actually ends up.
                true = true + drift
        gps = self._gps_of(true, t, rng)
        gps_valid: Optional[np.ndarray] = None
        if faults is not None:
            blackout = faults.gps_blackout_mask(self.clock_s + t)
            if blackout.any():
                gps_valid = ~blackout
                # Hold-last-fix: the flight controller keeps reporting
                # the last pre-blackout position until GNSS returns.
                last = np.maximum.accumulate(
                    np.where(gps_valid, np.arange(n_fix), -1)
                )
                held = np.clip(last, 0, None)
                gps = gps[held]
        log = FlightLog(
            t_s=self.clock_s + t,
            true_xyz=true,
            gps_xyz=gps,
            distance_m=total,
            gps_valid=gps_valid,
        )
        self.position = true[-1].copy()
        self.clock_s += duration
        return log

    def goto(
        self,
        xyz: Sequence[float],
        rng: np.random.Generator,
        faults: Optional["FaultInjector"] = None,
    ) -> FlightLog:
        """Straight-line reposition to a 3D point."""
        target = np.asarray(xyz, dtype=float).reshape(3)
        traj = Trajectory(target[None, :2], float(target[2]), "goto")
        return self.fly(traj, rng, faults=faults)
