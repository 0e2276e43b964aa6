"""Fig. 12 — throughput decays as UEs walk away from a fixed UAV.

Place the UAV optimally, then let 25/50/75% of the UEs walk scripted
pedestrian routes for an hour without repositioning the UAV; track the
relative aggregate throughput over time.  Paper: with a 10% loss
threshold the epoch can stretch to ~10 minutes.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.experiments.common import scenario_for
from repro.experiments.registry import Claim, check, register
from repro.mobility.models import ScriptedRoute

ALTITUDE_M = 60.0

PAPER = "10% loss threshold allows ~10 min epochs; more movers decay faster"


def _route_through(grid, rng) -> np.ndarray:
    """A pedestrian route: a few random waypoints across the area."""
    n = 4
    pts = np.column_stack(
        [
            rng.uniform(grid.origin_x, grid.max_x, n),
            rng.uniform(grid.origin_y, grid.max_y, n),
        ]
    )
    return pts


def grid(
    quick: bool = True,
    seed: int = 0,
    fractions=(0.25, 0.5, 0.75),
    duration_min: float = 60.0,
    step_min: float = 5.0,
) -> List[Dict]:
    return [
        {
            "moving_fraction": float(f),
            "seed": int(seed),
            "duration_min": float(duration_min),
            "step_min": float(step_min),
        }
        for f in fractions
    ]


def point(params: Dict, quick: bool = True) -> Dict:
    """Relative-throughput decay curve for one moving fraction."""
    seed = params["seed"]
    frac = params["moving_fraction"]
    duration_min = params["duration_min"]
    step_min = params["step_min"]
    scenario = scenario_for("campus", n_ues=8, seed=seed, quick=quick)
    rng = np.random.default_rng(seed + int(100 * frac))
    opt_pos, opt_tput = scenario.optimal_position(ALTITUDE_M, "avg")
    n_move = int(round(frac * len(scenario.ues)))
    movers = list(rng.choice(scenario.ues, size=n_move, replace=False))
    models = {
        ue.ue_id: ScriptedRoute(_route_through(scenario.grid, rng)) for ue in movers
    }
    times = np.arange(0.0, duration_min + 1e-9, step_min)
    rel = []
    for i, t in enumerate(times):
        if i > 0:
            dt = step_min * 60.0
            for ue in movers:
                models[ue.ue_id].step(ue, dt, rng)
        current = scenario.evaluate(opt_pos).avg_throughput_mbps
        rel.append(current / opt_tput if opt_tput > 0 else 0.0)
    # Time at which the 10%-loss threshold is crossed.
    below = np.flatnonzero(np.array(rel) < 0.9)
    epoch_min = float(times[below[0]]) if len(below) else float(times[-1])
    return {
        "moving_fraction": frac,
        "times_min": times,
        "rel": rel,
        "row": {
            "moving_fraction": frac,
            "rel_at_10min": float(np.interp(10.0, times, rel)),
            "rel_at_30min": float(np.interp(30.0, times, rel)),
            "rel_at_60min": float(rel[-1]),
            "epoch_at_10pct_min": epoch_min,
        },
    }


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    rows = [r["row"] for r in records]
    curves = {
        r["moving_fraction"]: (np.asarray(r["times_min"]), np.asarray(r["rel"]))
        for r in records
    }
    return {"rows": rows, "curves": curves, "paper": PAPER}


def claims(result: Dict) -> List[Claim]:
    """Throughput decays for every moving fraction; more movers lose at least as much."""
    rows = result["rows"]
    out = []
    for row in rows:
        frac = f"moving {row['moving_fraction']:g}"
        out.append(check(f"{frac} rel_at_60min", row["rel_at_60min"], "<=", 1.05))
        out.append(check(f"{frac} epoch_at_10pct_min", row["epoch_at_10pct_min"], ">", 0.0))
    first, last = rows[0], rows[-1]
    out.append(
        check(
            f"moving {last['moving_fraction']:g} rel_at_60min", last["rel_at_60min"], "<=",
            first["rel_at_60min"] + 0.15,
            f"moving {first['moving_fraction']:g} rel_at_60min + 0.15",
        )
    )
    return out


EXPERIMENT = register(
    "fig12",
    title="Fig. 12 — throughput decay without repositioning",
    grid=grid,
    point=point,
    aggregate=aggregate,
    claims=claims,
)
