"""Step-by-step walkthrough of SkyRAN's UE localization (Section 3.2).

Shows each stage with real intermediate values: the Zadoff-Chu SRS
symbol, the delayed/noisy received symbol, the Eq. 1-3 correlation
peak, the GPS-ToF tuple stream, and the offset-augmented joint
multilateration — ending with the position error per UE.

Run:  python examples/localization_demo.py
"""

from __future__ import annotations

import numpy as np

from repro import Scenario
from repro.flight.sampler import collect_gps_ranges, localize_all_ues
from repro.flight.uav import UAV
from repro.localization.ranging import mad_filter
from repro.lte.srs import apply_channel_batch, make_srs_symbol, pack_taps
from repro.lte.tof import ToFEstimator, estimate_delays_batch
from repro.trajectory.random_flight import random_flight


def demo_single_symbol() -> None:
    print("=== Step 1-3: one SRS symbol through the channel ===")
    scenario = Scenario.create("campus", n_ues=1, cell_size=4.0, seed=8)
    cfg = scenario.enodeb.srs_config
    rng = np.random.default_rng(0)
    sym = make_srs_symbol(cfg)
    print(f"  SRS symbol: {cfg.n_subcarriers} subcarriers on a {cfg.n_fft}-point FFT")
    print(f"  sample rate {cfg.sample_rate_hz/1e6:.2f} MS/s -> {cfg.meters_per_sample:.1f} m/sample")

    true_range = 163.0
    delay = true_range / cfg.meters_per_sample
    # A one-symbol batch: delay, SNR and one weak ground-bounce tap.
    rx = apply_channel_batch(
        sym, cfg, np.array([delay]), np.array([12.0]), rng, *pack_taps([((0.1, -9.0),)])
    )
    for K in (1, 4):
        est = estimate_delays_batch(rx, sym, upsampling=K, quality=False)[0][0]
        print(
            f"  K={K}: estimated delay {est:6.3f} samples -> "
            f"{est * cfg.meters_per_sample:7.1f} m (true {true_range:.1f} m)"
        )


def demo_full_localization() -> None:
    print("\n=== Steps 1-4: full localization flight ===")
    scenario = Scenario.create("campus", n_ues=5, cell_size=2.0, seed=8)
    grid = scenario.grid
    rng = np.random.default_rng(1)
    start = np.array([grid.width / 2, grid.height / 2])
    uav = UAV(position=np.array([start[0], start[1], 60.0]), speed_mps=3.0)
    traj = random_flight(grid, start, 30.0, 60.0, rng)
    log = uav.fly(traj, rng)
    print(f"  random flight: {traj.length_m:.0f} m, {log.duration_s:.1f} s, {len(log)} GPS fixes")

    estimator = ToFEstimator(scenario.enodeb.srs_config, upsampling=4)
    ue = scenario.ues[0]
    obs = collect_gps_ranges(log, ue, scenario.channel, scenario.enodeb, estimator, rng)
    obs = mad_filter(obs)
    d_true = [float(np.linalg.norm(o.gps_xyz - ue.xyz)) for o in obs[:3]]
    print(f"  UE {ue.ue_id}: {len(obs)} GPS-range tuples; first three:")
    for o, dt in zip(obs[:3], d_true):
        print(
            f"    gps=({o.gps_xyz[0]:6.1f},{o.gps_xyz[1]:6.1f}) "
            f"range={o.range_m:7.1f} m (geometric {dt:6.1f} m + offset)"
        )

    bounds = ((0.0, grid.width), (0.0, grid.height))
    joint = localize_all_ues(
        log, scenario.ues, scenario.channel, scenario.enodeb, estimator, rng,
        bounds_xy=bounds,
    )
    print(f"  joint solve: shared offset {joint.offset_m:.1f} m (true 137.0 m)")
    for ue in scenario.ues:
        res = joint.per_ue[ue.ue_id]
        err = np.hypot(res.position[0] - ue.position.x, res.position[1] - ue.position.y)
        print(
            f"    UE {ue.ue_id}: estimated ({res.position[0]:6.1f},{res.position[1]:6.1f}) "
            f"true ({ue.position.x:6.1f},{ue.position.y:6.1f}) error {err:5.1f} m"
        )


if __name__ == "__main__":
    demo_single_symbol()
    demo_full_localization()
