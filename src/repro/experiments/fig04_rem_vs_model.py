"""Fig. 4 — data-driven REMs beat propagation-model maps.

Four terrains of increasing complexity, 3 UEs each.  Compare the
median REM error (vs. exhaustive ground truth) of (a) a data-driven
REM built from a measurement flight, and (b) an FSPL map computed from
the UE locations.  Paper: model error grows to ~10 dB (Terrain-4),
up to ~4x the data-driven error (~2-4 dB).
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
from repro.rem.map import REM
from repro.trajectory.uniform import zigzag_for_budget

ALTITUDE_M = 60.0

#: Fixed probing overhead for the data-driven map.
BUDGET_M = 2500.0

PAPER = "model error grows with complexity to ~10 dB, up to ~4x the data-driven ~2-4 dB"


def _data_driven_maps(scenario, rem_grid, rng):
    """Per-UE REMs from one budgeted measurement flight."""
    traj = zigzag_for_budget(rem_grid, BUDGET_M, ALTITUDE_M)
    uav = UAV(position=np.array([rem_grid.origin_x, rem_grid.origin_y, ALTITUDE_M]))
    log = uav.fly(traj, rng)
    maps = []
    for ue in scenario.ues:
        rem = REM(rem_grid, ue.xyz, ALTITUDE_M)
        xy, snr = collect_snr_samples(log, ue, scenario.channel, rng)
        rem.add_measurements(xy, snr)
        maps.append(rem.interpolated())
    return maps


def grid(quick: bool = True, seed: int = 0) -> List[Dict]:
    return [{"terrain_idx": idx, "seed": int(seed)} for idx in (1, 2, 3, 4)]


def point(params: Dict, quick: bool = True) -> Dict:
    """Median REM error on one terrain, data-driven vs FSPL model."""
    idx = params["terrain_idx"]
    seed = params["seed"]
    cfg = config_for(quick)
    rng = np.random.default_rng([seed, idx])
    scenario = scenario_for(f"terrain-{idx}", n_ues=3, seed=seed, quick=quick)
    factor = max(1, int(round(cfg.rem_cell_size_m / scenario.grid.cell_size)))
    rem_grid = scenario.grid.coarsen(factor)
    truth = scenario.truth_maps(ALTITUDE_M, rem_grid)

    data_maps = _data_driven_maps(scenario, rem_grid, rng)
    data_err = float(
        np.median([median_abs_error_db(m, truth[i]) for i, m in enumerate(data_maps)])
    )

    model_errs = []
    for i, ue in enumerate(scenario.ues):
        pl = fspl_map(rem_grid, ue.xyz, ALTITUDE_M, scenario.channel.freq_hz)
        model_map = scenario.channel.link.snr_db(pl)
        model_errs.append(median_abs_error_db(model_map, truth[i]))
    model_err = float(np.median(model_errs))

    return {
        "terrain": f"terrain-{idx}",
        "data_driven_db": data_err,
        "model_based_db": model_err,
        "model_over_data": model_err / max(data_err, 1e-9),
    }


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    return {"rows": [dict(r) for r in records], "paper": PAPER}


def claims(result: Dict) -> List[Claim]:
    """Model error grows with terrain complexity; data beats it everywhere."""
    rows = result["rows"]
    first, last = rows[0], rows[-1]
    out = [
        check(
            f"{last['terrain']} model_based_db", last["model_based_db"], ">",
            first["model_based_db"], f"{first['terrain']} model_based_db",
        )
    ]
    out += [
        check(
            f"{row['terrain']} data_driven_db", row["data_driven_db"], "<",
            row["model_based_db"], "model_based_db",
        )
        for row in rows
    ]
    out.append(check(f"{last['terrain']} model_over_data", last["model_over_data"], ">", 2.0))
    return out


EXPERIMENT = register(
    "fig4",
    title="Fig. 4 — data-driven vs model-based REM error",
    grid=grid,
    point=point,
    aggregate=aggregate,
    claims=claims,
)
