"""Fig. 9 — localization error degrades placement quality.

Perturb the true UE locations by a controlled error, run the REM
construction + max-min placement on the perturbed locations, and
measure relative throughput.  Paper: <=5 m error -> 0.9-0.95x of
optimal; ~10 m -> ~10% loss; >=20 m -> >50% loss.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.channel.fspl import fspl_map
from repro.experiments.common import config_for, scenario_for
from repro.experiments.registry import Claim, check, register
from repro.flight.sampler import collect_snr_samples
from repro.flight.uav import UAV
from repro.rem.aggregate import aggregate_rem_running
from repro.rem.map import REM
from repro.rem.streaming import streamed_discounted_max_min_placement
from repro.trajectory.information import TrajectoryHistory
from repro.trajectory.skyran import SkyRANPlanner

ALTITUDE_M = 60.0
BUDGET_M = 600.0

PAPER = "<=5 m error -> 0.9-0.95x optimal; 10 m -> ~10% loss; >=20 m -> >50% loss"


def _placement_with_error(scenario, rem_grid, error_m, rng, seed):
    """REM pipeline fed positions displaced by ``error_m``."""

    def prior(ue_xyz):
        pl = fspl_map(rem_grid, ue_xyz, ALTITUDE_M, scenario.channel.freq_hz)
        return scenario.channel.link.snr_db(pl)

    believed = []
    for ue in scenario.ues:
        angle = rng.uniform(0, 2 * np.pi)
        offset = np.array([np.cos(angle), np.sin(angle)]) * error_m
        p = ue.xyz.copy()
        p[0] += offset[0]
        p[1] += offset[1]
        p[0], p[1] = rem_grid.clamp(p[0], p[1])
        believed.append(p)

    rems = [REM(rem_grid, p, ALTITUDE_M, prior=prior(p)) for p in believed]
    planner = SkyRANPlanner(seed=seed)
    start = np.array(
        [rem_grid.origin_x + rem_grid.width / 2, rem_grid.origin_y + rem_grid.height / 2]
    )
    agg = aggregate_rem_running(
        (r.interpolated() for r in rems), rem_grid.shape
    )
    plan = planner.plan(
        rem_grid,
        agg,
        believed,
        start,
        ALTITUDE_M,
        BUDGET_M,
        TrajectoryHistory(),
    )
    uav = UAV(position=np.array([start[0], start[1], ALTITUDE_M]))
    log = uav.fly(plan.trajectory, rng)
    samples = collect_snr_samples(log, scenario.ues, scenario.channel, rng)
    for rem, (xy, snr) in zip(rems, samples):
        rem.add_measurements(xy, snr)
    # Step 8 without the uncertainty discount (rate 0).
    placement, _ = streamed_discounted_max_min_placement(rem_grid, rems, ALTITUDE_M)
    return scenario.relative_throughput(placement.position)


def grid(quick: bool = True, seed: int = 0, errors=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0)) -> List[Dict]:
    return [{"loc_error_m": float(e), "seed": int(seed)} for e in errors]


def point(params: Dict, quick: bool = True) -> Dict:
    """Relative throughput at one injected localization error."""
    seed = params["seed"]
    err = params["loc_error_m"]
    scenario = scenario_for("campus", n_ues=7, seed=seed, quick=quick)
    cfg = config_for(quick)
    rem_grid = cfg.rem_grid_for(scenario.grid)
    rng = np.random.default_rng([seed, int(round(10 * err))])
    rel = _placement_with_error(scenario, rem_grid, err, rng, seed)
    return {"loc_error_m": err, "relative_throughput": float(rel)}


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    return {"rows": [dict(r) for r in records], "paper": PAPER}


def claims(result: Dict) -> List[Claim]:
    """Placement degrades with injected error; small errors keep most of optimal."""
    first, last = result["rows"][0], result["rows"][-1]
    label = f"error {first['loc_error_m']:g} m relative_throughput"
    return [
        check(
            label, first["relative_throughput"], ">=", last["relative_throughput"] - 0.05,
            f"error {last['loc_error_m']:g} m relative_throughput - 0.05",
        ),
        check(label, first["relative_throughput"], ">", 0.6),
    ]


EXPERIMENT = register(
    "fig9",
    title="Fig. 9 — impact of localization error",
    grid=grid,
    point=point,
    aggregate=aggregate,
    claims=claims,
)
