"""Figs. 5/16 — trajectory shapes over the ground-truth map.

Qualitative in the paper (trajectory overlays on the RF map); here we
also quantify what the pictures show: how much of the high-gradient
(informative) area each trajectory family covers per meter flown.
The exhaustive sweep covers everything at huge cost; Uniform covers a
band; SkyRAN's plan concentrates on the informative cells.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.channel.fspl import fspl_map
from repro.experiments.common import scenario_for
from repro.experiments.registry import Claim, check, register
from repro.rem.aggregate import aggregate_rem_running
from repro.rem.gradient import gradient_map, high_gradient_cells
from repro.trajectory.information import TrajectoryHistory
from repro.trajectory.skyran import SkyRANPlanner
from repro.trajectory.uniform import zigzag_trajectory

ALTITUDE_M = 60.0
BUDGET_M = 800.0

#: A probe "covers" informative cells within this radius of its path.
COVER_RADIUS_M = 10.0

PAPER = "SkyRAN's path concentrates on informative regions (Figs. 5/16 visually)"


def _coverage(traj, hot_xy: np.ndarray) -> float:
    """Fraction of hot cells within COVER_RADIUS_M of the path."""
    if len(hot_xy) == 0:
        return 0.0
    samples = traj.sample(5.0)
    d = np.min(
        np.hypot(
            hot_xy[:, 0][:, None] - samples[:, 0][None, :],
            hot_xy[:, 1][:, None] - samples[:, 1][None, :],
        ),
        axis=1,
    )
    return float(np.mean(d <= COVER_RADIUS_M))


def grid(quick: bool = True, seed: int = 0) -> List[Dict]:
    return [{"seed": int(seed)}]


def point(params: Dict, quick: bool = True) -> Dict:
    """Informative-area coverage per trajectory family."""
    seed = params["seed"]
    scenario = scenario_for("campus", n_ues=3, seed=seed, quick=quick)
    grid_ = scenario.grid
    ue_positions = [u.xyz for u in scenario.ues]

    # The informative set: high-gradient cells of the true aggregate.
    truth = scenario.truth_maps(ALTITUDE_M, grid_)
    grad = gradient_map(aggregate_rem_running(truth, grid_.shape))
    iy, ix = high_gradient_cells(grad, 0.5)
    hot_xy = np.column_stack(
        [
            grid_.origin_x + (ix + 0.5) * grid_.cell_size,
            grid_.origin_y + (iy + 0.5) * grid_.cell_size,
        ]
    )

    exhaustive = zigzag_trajectory(grid_, 20.0, ALTITUDE_M, label="exhaustive")
    uniform = zigzag_trajectory(grid_, 15.0, ALTITUDE_M).truncated(BUDGET_M)
    prior_maps = [
        scenario.channel.link.snr_db(fspl_map(grid_, p, ALTITUDE_M))
        for p in ue_positions
    ]
    plan = SkyRANPlanner(seed=seed).plan(
        grid_,
        aggregate_rem_running(prior_maps, grid_.shape),
        ue_positions,
        np.array([grid_.width / 2, grid_.height / 2]),
        ALTITUDE_M,
        BUDGET_M,
        TrajectoryHistory(),
    )

    rows = []
    for label, traj in (
        ("exhaustive", exhaustive),
        ("uniform-800m", uniform),
        ("skyran-800m", plan.trajectory),
    ):
        cov = _coverage(traj, hot_xy)
        rows.append(
            {
                "trajectory": label,
                "length_m": traj.length_m,
                "hot_coverage": cov,
                "coverage_per_km": cov / max(traj.length_m / 1000.0, 1e-9),
            }
        )
    return {"rows": rows}


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    return {"rows": records[0]["rows"], "paper": PAPER}


def claims(result: Dict) -> List[Claim]:
    """SkyRAN covers informative cells more per km; exhaustive costs several x."""
    rows = {r["trajectory"]: r for r in result["rows"]}
    sky, exhaustive = rows["skyran-800m"], rows["exhaustive"]
    return [
        check(
            "skyran-800m coverage_per_km", sky["coverage_per_km"], ">",
            rows["uniform-800m"]["coverage_per_km"], "uniform-800m coverage_per_km",
        ),
        check("exhaustive hot_coverage", exhaustive["hot_coverage"], ">", 0.95),
        check(
            "exhaustive length_m", exhaustive["length_m"], ">", 4 * sky["length_m"],
            "4 * skyran-800m length_m",
        ),
    ]


EXPERIMENT = register(
    "fig5",
    title="Figs. 5/16 — trajectory coverage of informative cells",
    grid=grid,
    point=point,
    aggregate=aggregate,
    claims=claims,
)
