"""Figs. 29/30 — performance at a fixed 5000 m total budget, by terrain.

Half the UEs relocate every epoch; the total measurement budget across
epochs is capped at 5000 m.  Fig. 29 reports the relative throughput
achieved within that budget; Fig. 30 the median REM error.  Paper:
parity with Uniform on flat RURAL, ~1.4x better throughput on NYC and
LARGE (and correspondingly better REMs).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.experiments.common import scenario_for
from repro.experiments.placement_common import run_scheme
from repro.experiments.registry import Claim, check, register

TOTAL_BUDGET_M = 5000.0
N_EPOCHS = 5

TERRAINS = ("rural", "nyc", "large")

PAPER = "parity on RURAL; SkyRAN ~1.4x Uniform throughput on NYC/LARGE at 5000 m"


def grid(quick: bool = True, seeds=(0, 1)) -> List[Dict]:
    return [
        {"terrain": terrain, "n_ues": 6, "scheme": scheme, "seed": int(seed)}
        for terrain in TERRAINS
        for scheme in ("skyran", "uniform")
        for seed in seeds
    ]


def point(params: Dict, quick: bool = True) -> Dict:
    """One (terrain, UE count, scheme, seed) run under the 5000 m budget.

    Half the UEs relocate before every epoch after the first.  Figs. 30
    and 31 register this same function, so the artifact cache serves
    all three figures from one set of point computations (Fig. 31's
    6-UE NYC points are Fig. 29's).
    """
    scenario = scenario_for(params["terrain"], params["n_ues"], "uniform", params["seed"], quick)
    records = run_scheme(
        scenario,
        params["scheme"],
        TOTAL_BUDGET_M / N_EPOCHS,
        seed=params["seed"],
        quick=quick,
        n_epochs=N_EPOCHS,
        move_fraction=0.5,
    ).records
    # Score the steady state: mean over the post-first-epoch records.
    tail = records[1:]
    return {
        **params,
        "relative_throughput": float(np.mean([r.relative_throughput for r in tail])),
        "rem_error_db": float(np.nanmean([r.rem_error_db for r in tail])),
    }


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    rows = []
    for terrain in TERRAINS:
        sky = [r for r in records if r["terrain"] == terrain and r["scheme"] == "skyran"]
        uni = [r for r in records if r["terrain"] == terrain and r["scheme"] == "uniform"]
        sky_rel = float(np.mean([r["relative_throughput"] for r in sky]))
        uni_rel = float(np.mean([r["relative_throughput"] for r in uni]))
        rows.append(
            {
                "terrain": terrain,
                "skyran_rel": sky_rel,
                "uniform_rel": uni_rel,
                "skyran_over_uniform": sky_rel / max(uni_rel, 1e-9),
                "skyran_rem_db": float(np.mean([r["rem_error_db"] for r in sky])),
                "uniform_rem_db": float(np.mean([r["rem_error_db"] for r in uni])),
            }
        )
    return {"rows": rows, "paper": PAPER}


def claims(result: Dict) -> List[Claim]:
    """SkyRAN wins on complex terrains and stays near parity on RURAL."""
    rows = {r["terrain"]: r for r in result["rows"]}
    out = [
        check(f"{terrain} skyran_over_uniform", rows[terrain]["skyran_over_uniform"], ">", 0.95)
        for terrain in ("nyc", "large")
    ]
    out.append(check("rural skyran_over_uniform", rows["rural"]["skyran_over_uniform"], ">", 0.7))
    return out


EXPERIMENT = register(
    "fig29",
    title="Figs. 29/30 — 5000 m budget across terrains",
    grid=grid,
    point=point,
    aggregate=aggregate,
    claims=claims,
)
