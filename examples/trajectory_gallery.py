"""ASCII gallery of the trajectories the paper illustrates (Figs. 5/16).

Renders the campus ground-truth path-loss map for one UE with three
flight paths overlaid: the exhaustive ground-truth sweep, the Uniform
baseline's truncated corner sweep, and SkyRAN's gradient/cluster plan.

Run:  python examples/trajectory_gallery.py
"""

from __future__ import annotations

import numpy as np

from repro import Scenario
from repro.channel.fspl import fspl_map
from repro.rem.aggregate import aggregate_rem_running
from repro.rem.gradient import gradient_map
from repro.trajectory.information import TrajectoryHistory
from repro.trajectory.skyran import SkyRANPlanner
from repro.trajectory.uniform import zigzag_trajectory

ALTITUDE_M = 60.0
SHADES = " .:-=+*#%@"


def render(grid, field, trajectories, width=64) -> None:
    """Print a field as ASCII shades with trajectory overlays."""
    factor = max(1, grid.nx // width)
    coarse = field[::factor, ::factor]
    lo, hi = np.nanmin(coarse), np.nanmax(coarse)
    span = max(hi - lo, 1e-9)
    canvas = [
        [SHADES[int((v - lo) / span * (len(SHADES) - 1))] if np.isfinite(v) else "?" for v in row]
        for row in coarse
    ]
    marks = "ABCDEFG"
    for t_idx, traj in enumerate(trajectories):
        for x, y in traj.sample(grid.cell_size * factor):
            ix, iy = grid.cell_of(x, y)
            cx, cy = ix // factor, iy // factor
            if 0 <= cy < len(canvas) and 0 <= cx < len(canvas[0]):
                canvas[cy][cx] = marks[t_idx]
    for row in reversed(canvas):  # north at the top
        print("".join(row))


def main() -> None:
    scenario = Scenario.create("campus", n_ues=3, cell_size=2.0, seed=9)
    grid = scenario.grid
    ue = scenario.ues[0]
    truth = scenario.channel.path_loss_maps([ue.xyz], ALTITUDE_M)[0]

    print(f"Ground-truth path loss to UE {ue.ue_id} at {ALTITUDE_M:.0f} m altitude")
    print(f"(dark = low loss; UE at ({ue.position.x:.0f},{ue.position.y:.0f}))\n")

    uniform = zigzag_trajectory(grid, 15.0, ALTITUDE_M).truncated(800.0)

    prior_maps = [
        scenario.channel.link.snr_db(fspl_map(grid, u.xyz, ALTITUDE_M)) for u in scenario.ues
    ]
    agg = aggregate_rem_running(prior_maps, grid.shape)
    planner = SkyRANPlanner(seed=0)
    plan = planner.plan(
        grid,
        agg,
        [u.xyz for u in scenario.ues],
        np.array([grid.width / 2, grid.height / 2]),
        ALTITUDE_M,
        800.0,
        TrajectoryHistory(),
    )

    print("A = Uniform corner sweep (800 m), B = SkyRAN plan (800 m):\n")
    render(grid, truth, [uniform, plan.trajectory])

    grad = gradient_map(agg)
    print("\nGradient map of the aggregate (FSPL-seeded) REM — the field")
    print("SkyRAN's planner clusters (bright = high gradient):\n")
    render(grid, np.nan_to_num(grad, nan=0.0), [plan.trajectory])
    print(f"\nSkyRAN chose K={plan.k} clusters; trajectory {plan.trajectory.length_m:.0f} m")


if __name__ == "__main__":
    main()
