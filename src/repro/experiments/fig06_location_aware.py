"""Fig. 6 — location-aware probing wins per unit of area probed.

Build REMs with two strategies at growing budgets and plot median REM
error against the fraction of the area actually measured.  The
location-aware trajectory is SkyRAN's gradient/cluster planner seeded
with the UE locations; the naive one is the corner-start zigzag.
Paper: at ~15% of the area probed, location-aware ~5 dB vs naive
~16 dB.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.channel.fspl import fspl_map
from repro.experiments.common import config_for, scenario_for
from repro.experiments.registry import Claim, check, register
from repro.flight.sampler import collect_snr_samples
from repro.flight.uav import UAV
from repro.rem.accuracy import median_abs_error_db
from repro.rem.aggregate import aggregate_rem_running
from repro.rem.map import REM
from repro.trajectory.information import TrajectoryHistory
from repro.trajectory.skyran import SkyRANPlanner
from repro.trajectory.uniform import zigzag_trajectory

ALTITUDE_M = 60.0

DEFAULT_BUDGETS = (300.0, 600.0, 1200.0, 2400.0, 4800.0)

PAPER = "at ~15% of area probed: location-aware ~5 dB vs naive ~16 dB"


def _measure(scenario, rem_grid, rems, traj, rng):
    """Fly a trajectory and fold its samples into the given REMs."""
    uav = UAV(position=np.array([traj.waypoints[0][0], traj.waypoints[0][1], ALTITUDE_M]))
    log = uav.fly(traj, rng)
    samples = collect_snr_samples(log, scenario.ues, scenario.channel, rng)
    for rem, (xy, snr) in zip(rems, samples):
        rem.add_measurements(xy, snr)


def _error_and_fraction(rems, truth):
    errs = [
        median_abs_error_db(rem.interpolated(), truth[i])
        for i, rem in enumerate(rems)
    ]
    fraction = float(np.mean([rem.n_measured_cells / rem.grid.num_cells for rem in rems]))
    return float(np.median(errs)), fraction


def _setup(seed: int, quick: bool):
    scenario = scenario_for("campus", n_ues=3, seed=seed, quick=quick)
    cfg = config_for(quick)
    rem_grid = cfg.rem_grid_for(scenario.grid)
    truth = scenario.truth_maps(ALTITUDE_M, rem_grid)
    return scenario, rem_grid, truth


def grid(quick: bool = True, seed: int = 0, budgets=None) -> List[Dict]:
    budgets = list(DEFAULT_BUDGETS if budgets is None else budgets)
    # The location-aware strategy is stateful over the whole budget
    # ladder (each plan builds on the previous REM state), so each
    # strategy is one grid point carrying the full ladder.
    return [
        {"strategy": strategy, "seed": int(seed), "budgets": [float(b) for b in budgets]}
        for strategy in ("aware", "naive")
    ]


def point(params: Dict, quick: bool = True) -> Dict:
    """The error-vs-fraction curve of one probing strategy."""
    seed = params["seed"]
    budgets = params["budgets"]
    scenario, rem_grid, truth = _setup(seed, quick)
    rng = np.random.default_rng(seed)
    curve = []

    if params["strategy"] == "aware":
        # Location-aware probing: incremental SkyRAN plans, REM state kept.
        def prior(ue_xyz):
            pl = fspl_map(rem_grid, ue_xyz, ALTITUDE_M, scenario.channel.freq_hz)
            return scenario.channel.link.snr_db(pl)

        rems = [
            REM(rem_grid, ue.xyz, ALTITUDE_M, prior=prior(ue.xyz)) for ue in scenario.ues
        ]
        planner = SkyRANPlanner(seed=seed)
        history = TrajectoryHistory()
        ue_positions = [ue.xyz for ue in scenario.ues]
        start = np.array(
            [rem_grid.origin_x + rem_grid.width / 2, rem_grid.origin_y + rem_grid.height / 2]
        )
        spent = 0.0
        for budget in budgets:
            increment = budget - spent
            agg = aggregate_rem_running(
                (r.interpolated() for r in rems), rem_grid.shape
            )
            plan = planner.plan(
                rem_grid,
                agg,
                ue_positions,
                start,
                ALTITUDE_M,
                increment,
                history,
            )
            _measure(scenario, rem_grid, rems, plan.trajectory, rng)
            for p in ue_positions:
                history.record(p, plan.trajectory)
            start = plan.trajectory.end()
            spent = budget
            err, frac = _error_and_fraction(rems, truth)
            curve.append([frac, err])
    else:
        # Naive probing: a dense corner-start sweep truncated at each
        # budget, fresh REMs each time (the same flight prefix grows,
        # so keeping state would double-count).
        for budget in budgets:
            naive_rems = [REM(rem_grid, ue.xyz, ALTITUDE_M) for ue in scenario.ues]
            traj = zigzag_trajectory(rem_grid, 15.0, ALTITUDE_M).truncated(budget)
            _measure(scenario, rem_grid, naive_rems, traj, rng)
            err, frac = _error_and_fraction(naive_rems, truth)
            curve.append([frac, err])

    return {"strategy": params["strategy"], "budgets": budgets, "curve": curve}


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    by_strategy = {r["strategy"]: r for r in records}
    aware = by_strategy["aware"]
    naive = by_strategy["naive"]
    aware_curve = [(f, e) for f, e in aware["curve"]]
    naive_curve = [(f, e) for f, e in naive["curve"]]
    rows = []
    for budget, (af, ae), (nf, ne) in zip(aware["budgets"], aware_curve, naive_curve):
        rows.append(
            {
                "budget_m": budget,
                "aware_frac_pct": 100 * af,
                "aware_err_db": ae,
                "naive_frac_pct": 100 * nf,
                "naive_err_db": ne,
            }
        )
    return {
        "rows": rows,
        "aware_curve": aware_curve,
        "naive_curve": naive_curve,
        "paper": PAPER,
    }


def claims(result: Dict) -> List[Claim]:
    """Location-aware probing wins at small fractions and improves with budget."""
    rows = result["rows"]
    out = [
        check(
            f"{row['budget_m']:g} m aware_err_db", row["aware_err_db"], "<",
            row["naive_err_db"], "naive_err_db",
        )
        for row in rows[:2]
    ]
    out.append(
        check(
            f"{rows[-1]['budget_m']:g} m aware_err_db", rows[-1]["aware_err_db"], "<=",
            rows[0]["aware_err_db"], f"{rows[0]['budget_m']:g} m aware_err_db",
        )
    )
    return out


EXPERIMENT = register(
    "fig6",
    title="Fig. 6 — location-aware vs naive probing",
    grid=grid,
    point=point,
    aggregate=aggregate,
    claims=claims,
)
