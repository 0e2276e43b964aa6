"""SkyRAN configuration.

The paper's fixed operating values are module constants; the knobs
that runs do change live in one dataclass, with the paper's values as
defaults (Sections 3-4).  Construction is keyword-only and validated:
a misconfigured run — negative rates, inverted altitude bounds, an
unknown traffic model — fails at config time with a clear
message, not hours into a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geo.grid import GridSpec
from repro.traffic.generators import available_traffic_models
from repro.traffic.schedulers import available_schedulers


#: Length of the random localization flight.  The paper uses 20 m; our
#: synthetic noise structure saturates at ~30 m (reproduction Fig. 19).
LOCALIZATION_FLIGHT_M = 30.0

#: Ground speed of the localization flight.  Flown much slower than
#: measurement cruise so the 50 Hz GPS / 100 Hz SRS streams yield enough
#: fused observations per meter for the offset-augmented solve.
LOCALIZATION_SPEED_MPS = 3.0

#: Altitude of the localization flight.  Lower improves the ranging
#: geometry, but flying near obstruction tops puts grazing NLOS
#: multipath bias into the ranges, and bias hurts the offset-augmented
#: solve far more than geometry: flying well above the clutter wins.
LOCALIZATION_ALTITUDE_M = 100.0

#: Largest cluster count the trajectory planner tries (Section 3.4;
#: the planner's own floor of 3 is the lower end).
K_MAX = 10

#: Robust-placement extension (not in the paper): before the max-min
#: argmax, each cell's estimated SNR is discounted by this rate times
#: the distance to the nearest measured cell, capped.  Interpolated or
#: FSPL-seeded values far from any measurement are optimistic on
#: average, and an argmax *selects for* optimistic errors.
UNCERTAINTY_PENALTY_DB_PER_M = 0.1
UNCERTAINTY_PENALTY_CAP_DB = 6.0

#: Degraded-mode localization gates, armed only when a fault injector
#: is wired in.  A leg leaving any UE untrusted is re-flown at most
#: ``LOCALIZATION_MAX_RETRIES`` times; a per-UE estimate is trusted when
#: its residual RMS is at most ``LOCALIZATION_RESIDUAL_LIMIT_M`` and its
#: inlier fraction at least ``MIN_INLIER_FRACTION``; SRS receptions
#: whose correlation peak-to-background ratio is below
#: ``TOF_QUALITY_FLOOR`` are discarded.
LOCALIZATION_MAX_RETRIES = 1
LOCALIZATION_RESIDUAL_LIMIT_M = 60.0
MIN_INLIER_FRACTION = 0.35
TOF_QUALITY_FLOOR = 2.0

#: TTIs simulated per serving-time MAC batch (1000 = 1 s).
TTI_BATCH = 1000


@dataclass(kw_only=True)
class SkyRANConfig:
    """Operational parameters of a SkyRAN UAV.

    Attributes
    ----------
    max_altitude_m:
        FAA ceiling the altitude search starts from (120 m).
    min_altitude_m:
        Floor for the altitude search.
    measurement_budget_m:
        Default per-epoch measurement trajectory budget.
    rem_cell_size_m:
        Cell size of estimated REMs (1 m in the paper; coarser speeds
        up large scale-up simulations).
    reuse_radius_m:
        ``R`` of Section 3.5: a UE within R of a stored REM's key
        position inherits that REM (10 m, from Fig. 9).
    epoch_margin:
        Aggregate-throughput drop fraction that triggers a new epoch
        (0.1 in the paper's example).
    gradient_quantile:
        Gradient threshold quantile (0.5 = paper's median).
    epoch_debounce:
        Consecutive below-margin throughput samples required before the
        epoch trigger fires (1 = the paper's instant trigger).  Under
        fault injection a single corrupted KPI sample can look like a
        real degradation; debouncing keeps transient faults from
        thrashing epochs.
    traffic_model:
        Per-UE workload: ``"full_buffer"`` (the legacy idealization)
        or ``"poisson"``; validated against
        :func:`repro.traffic.generators.available_traffic_models`.
    scheduler:
        TTI scheduler (``"round_robin"``, ``"proportional_fair"``,
        ``"max_min"``); validated against
        :func:`repro.traffic.schedulers.available_schedulers`.
    traffic_rate_mbps:
        Mean offered rate per UE of the ``"poisson"`` workload.
    epoch_trigger_metric:
        What the epoch trigger watches while serving: ``"capacity"``
        (the legacy full-cell mean throughput, load-independent),
        ``"served"`` (aggregate *served* rate from the MAC simulation,
        which diverges from capacity exactly when the offered load
        does not saturate the cell — the paper's Section 3.5 signal
        computed on real traffic).
    rem_key_pitch_m:
        Quantization pitch of the epoch's REM-key dedup: UE estimates
        in the same pitch cell share one REM and one interpolated map,
        so epoch work saturates at the number of occupied key cells.
        None (the default) makes every UE its own group — the paper's
        per-UE epoch.  At the city generator's REM key pitch (32 m)
        dedup is exact — city UEs sharing a key cell already share
        position-keyed REMs.
    """

    max_altitude_m: float = 120.0
    min_altitude_m: float = 20.0
    measurement_budget_m: float = 600.0
    rem_cell_size_m: float = 1.0
    reuse_radius_m: float = 10.0
    epoch_margin: float = 0.1
    gradient_quantile: float = 0.5
    epoch_debounce: int = 1
    traffic_model: str = "full_buffer"
    scheduler: str = "round_robin"
    traffic_rate_mbps: float = 2.0
    epoch_trigger_metric: str = "capacity"
    rem_key_pitch_m: "float | None" = None

    def __post_init__(self) -> None:
        if not 0 < self.min_altitude_m <= self.max_altitude_m:
            raise ValueError("need 0 < min_altitude_m <= max_altitude_m")
        if self.measurement_budget_m <= 0:
            raise ValueError("measurement_budget_m must be positive")
        if self.rem_cell_size_m <= 0:
            raise ValueError("rem_cell_size_m must be positive")
        if not 0.0 < self.epoch_margin < 1.0:
            raise ValueError("epoch_margin must be in (0, 1)")
        if self.reuse_radius_m < 0:
            raise ValueError("reuse_radius_m must be >= 0")
        if self.epoch_debounce < 1:
            raise ValueError("epoch_debounce must be >= 1")
        if self.traffic_model not in available_traffic_models():
            known = ", ".join(available_traffic_models())
            raise ValueError(
                f"unknown traffic model {self.traffic_model!r} (known: {known})"
            )
        if self.scheduler not in available_schedulers():
            known = ", ".join(available_schedulers())
            raise ValueError(f"unknown scheduler {self.scheduler!r} (known: {known})")
        if self.traffic_rate_mbps <= 0:
            raise ValueError("traffic_rate_mbps must be positive")
        if self.epoch_trigger_metric not in ("capacity", "served"):
            raise ValueError(
                "epoch_trigger_metric must be 'capacity' or 'served', "
                f"got {self.epoch_trigger_metric!r}"
            )
        if self.rem_key_pitch_m is not None and self.rem_key_pitch_m <= 0:
            raise ValueError("rem_key_pitch_m must be positive")

    def rem_grid_for(self, terrain_grid: GridSpec) -> GridSpec:
        """The default REM grid: ``terrain_grid`` coarsened to
        ``rem_cell_size_m`` (never finer than one terrain cell)."""
        factor = max(1, int(round(self.rem_cell_size_m / terrain_grid.cell_size)))
        return terrain_grid.coarsen(factor)
