"""SkyRAN configuration.

One dataclass holding every operational knob the paper exposes, with
the paper's values as defaults (Sections 3-4).  Construction is
keyword-only and validated: a misconfigured run — negative rates,
inverted altitude bounds, a traffic model nothing registered —
fails at config time with a clear message, not hours into a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geo.grid import GridSpec
from repro.traffic.generators import available_traffic_models
from repro.traffic.schedulers import available_schedulers


@dataclass(kw_only=True)
class SkyRANConfig:
    """Operational parameters of a SkyRAN UAV.

    Attributes
    ----------
    localization_flight_m:
        Length of the random localization flight.  The paper uses
        20 m; our synthetic noise structure saturates at ~30 m
        (reproduction Fig. 19), so the default is 30 m.
    localization_speed_mps:
        Ground speed of the localization flight.  Flown much slower
        than measurement cruise so the 50 Hz GPS / 100 Hz SRS streams
        yield enough fused observations per meter for the
        offset-augmented solve.
    localization_altitude_m:
        Altitude the localization flight is flown at.  Two opposing
        effects: lower improves the ranging geometry (stronger
        horizontal range gradient), but flying near obstruction tops
        puts grazing NLOS multipath bias into the ranges — and bias
        hurts the offset-augmented solve far more than geometry.
        Flying well above the clutter wins.
    max_altitude_m:
        FAA ceiling the altitude search starts from (120 m).
    min_altitude_m:
        Floor for the altitude search.
    altitude_step_m:
        Descent step while tracking path loss.
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
    k_min, k_max:
        Cluster-count range for the trajectory planner.
    gradient_quantile:
        Gradient threshold quantile (0.5 = paper's median).
    tof_upsampling:
        SRS correlation upsampling ``K`` (4 in the paper).
    uncertainty_penalty_db_per_m / uncertainty_penalty_cap_db:
        Robust-placement extension (not in the paper): before the
        max-min argmax, each cell's estimated SNR is discounted by
        ``penalty * distance to the nearest measured cell`` (capped).
        Interpolated/FSPL-seeded values far from any measurement are
        optimistic on average, and an argmax *selects for* optimistic
        errors; the discount keeps placement honest.  Set the rate to
        0 to recover the paper's plain max-min placement.
    epoch_debounce:
        Consecutive below-margin throughput samples required before the
        epoch trigger fires (1 = the paper's instant trigger).  Under
        fault injection a single corrupted KPI sample can look like a
        real degradation; debouncing keeps transient faults from
        thrashing epochs.
    localization_max_retries:
        Degraded-mode fallback: how many times the controller may
        re-fly the localization leg when the joint solve comes back
        starved or with blown-up residuals (only engaged when a fault
        injector is wired in).
    localization_residual_limit_m:
        Per-UE residual RMS above which an estimate is considered
        untrustworthy and the last-good estimate is preferred.
    min_inlier_fraction:
        Per-UE inlier fraction below which an estimate is considered
        untrustworthy.
    tof_quality_floor:
        Correlation peak-to-background ratio below which an SRS
        reception is discarded during chaos runs (0 disables the gate;
        it is never applied in fault-free runs).
    traffic_model:
        Registered per-UE workload (``"full_buffer"`` — the legacy
        idealization — ``"cbr"``, ``"poisson"``, ``"onoff_video"``);
        validated against
        :func:`repro.traffic.generators.available_traffic_models`.
    scheduler:
        Registered TTI scheduler (``"round_robin"``,
        ``"proportional_fair"``, ``"max_min"``); validated against
        :func:`repro.traffic.schedulers.available_schedulers`.
    traffic_rate_mbps:
        Mean offered rate per UE for the rate-driven workloads.
    traffic_buffer_bytes:
        Per-UE RLC buffer bound with tail drop; 0 = unbounded.
    epoch_trigger_metric:
        What the epoch trigger watches while serving: ``"capacity"``
        (the legacy full-cell mean throughput, load-independent),
        ``"served"`` (aggregate *served* rate from the MAC simulation,
        which diverges from capacity exactly when the offered load
        does not saturate the cell — the paper's Section 3.5 signal
        computed on real traffic).
    tti_batch:
        TTIs simulated per serving-time MAC batch (1000 = 1 s).
    pf_time_constant_tti:
        EWMA horizon of the proportional-fair average (TTIs).
    rem_key_pitch_m:
        Quantization pitch of the epoch's REM-key dedup: UE estimates
        in the same pitch cell share one REM and one interpolated map,
        so epoch work saturates at the number of occupied key cells.
        None (the default) makes every UE its own group — the paper's
        per-UE epoch.  At the city generator's REM key pitch (32 m)
        dedup is exact — city UEs sharing a key cell already share
        position-keyed REMs.
    """

    localization_flight_m: float = 30.0
    localization_speed_mps: float = 3.0
    localization_altitude_m: float = 100.0
    max_altitude_m: float = 120.0
    min_altitude_m: float = 20.0
    altitude_step_m: float = 10.0
    measurement_budget_m: float = 600.0
    rem_cell_size_m: float = 1.0
    reuse_radius_m: float = 10.0
    epoch_margin: float = 0.1
    k_min: int = 3
    k_max: int = 10
    gradient_quantile: float = 0.5
    tof_upsampling: int = 4
    uncertainty_penalty_db_per_m: float = 0.1
    uncertainty_penalty_cap_db: float = 6.0
    epoch_debounce: int = 1
    localization_max_retries: int = 1
    localization_residual_limit_m: float = 60.0
    min_inlier_fraction: float = 0.35
    tof_quality_floor: float = 2.0
    traffic_model: str = "full_buffer"
    scheduler: str = "round_robin"
    traffic_rate_mbps: float = 2.0
    traffic_buffer_bytes: float = 0.0
    epoch_trigger_metric: str = "capacity"
    tti_batch: int = 1000
    pf_time_constant_tti: int = 100
    rem_key_pitch_m: "float | None" = None

    def __post_init__(self) -> None:
        if self.localization_flight_m <= 0:
            raise ValueError("localization_flight_m must be positive")
        if self.localization_speed_mps <= 0:
            raise ValueError("localization_speed_mps must be positive")
        if not 0 < self.min_altitude_m <= self.max_altitude_m:
            raise ValueError("need 0 < min_altitude_m <= max_altitude_m")
        if self.altitude_step_m <= 0:
            raise ValueError("altitude_step_m must be positive")
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
        if self.localization_max_retries < 0:
            raise ValueError("localization_max_retries must be >= 0")
        if self.localization_residual_limit_m <= 0:
            raise ValueError("localization_residual_limit_m must be positive")
        if not 0.0 <= self.min_inlier_fraction <= 1.0:
            raise ValueError("min_inlier_fraction must be in [0, 1]")
        if self.tof_quality_floor < 0:
            raise ValueError("tof_quality_floor must be >= 0")
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
        if self.traffic_buffer_bytes < 0:
            raise ValueError("traffic_buffer_bytes must be >= 0")
        if self.epoch_trigger_metric not in ("capacity", "served"):
            raise ValueError(
                "epoch_trigger_metric must be 'capacity' or 'served', "
                f"got {self.epoch_trigger_metric!r}"
            )
        if self.tti_batch < 1:
            raise ValueError("tti_batch must be >= 1")
        if self.pf_time_constant_tti < 1:
            raise ValueError("pf_time_constant_tti must be >= 1")
        if self.rem_key_pitch_m is not None and self.rem_key_pitch_m <= 0:
            raise ValueError("rem_key_pitch_m must be positive")

    def rem_grid_for(self, terrain_grid: GridSpec) -> GridSpec:
        """The default REM grid: ``terrain_grid`` coarsened to
        ``rem_cell_size_m`` (never finer than one terrain cell)."""
        factor = max(1, int(round(self.rem_cell_size_m / terrain_grid.cell_size)))
        return terrain_grid.coarsen(factor)
