"""Fig. 31 — relative throughput vs number of UEs.

NYC, half the UEs relocating per epoch, a 5000 m total budget; sweep
the UE count from 2 to 10.  Paper: SkyRAN improves roughly linearly up
to ~8 UEs (more UEs = more parallel information per flight) and stays
above Uniform throughout.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.experiments.common import skyran_for, uniform_for
from repro.experiments.placement_common import fresh_scenario
from repro.experiments.registry import Claim, check, register
from repro.sim.runner import run_epochs

ALTITUDE_M = 60.0
TOTAL_BUDGET_M = 5000.0
N_EPOCHS = 5

PAPER = "SkyRAN improves with UE count up to ~8 and stays above Uniform"


def _run_one(n_ues: int, scheme: str, seed: int, quick: bool) -> float:
    scenario = fresh_scenario("nyc", n_ues, "uniform", seed, quick)
    if scheme == "skyran":
        ctrl = skyran_for(scenario, seed=seed, quick=quick)
        ctrl.altitude = ALTITUDE_M
    else:
        ctrl = uniform_for(scenario, altitude=ALTITUDE_M, seed=seed, quick=quick)
    records = run_epochs(
        scenario,
        ctrl,
        N_EPOCHS,
        budget_per_epoch_m=TOTAL_BUDGET_M / N_EPOCHS,
        move_fraction=0.5,
        seed=seed,
    )
    tail = records[1:] if len(records) > 1 else records
    return float(np.mean([r.relative_throughput for r in tail]))


def grid(quick: bool = True, ue_counts=(2, 4, 6, 8, 10), seeds=(0, 1)) -> List[Dict]:
    return [
        {"n_ues": int(n), "scheme": scheme, "seed": int(seed)}
        for n in ue_counts
        for scheme in ("skyran", "uniform")
        for seed in seeds
    ]


def point(params: Dict, quick: bool = True) -> Dict:
    """One (UE count, scheme, seed) run under the 5000 m budget."""
    rel = _run_one(params["n_ues"], params["scheme"], params["seed"], quick)
    return {"n_ues": params["n_ues"], "scheme": params["scheme"], "relative_throughput": rel}


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    counts = []
    for rec in records:
        if rec["n_ues"] not in counts:
            counts.append(rec["n_ues"])
    rows = []
    for n in counts:
        sky = [
            r["relative_throughput"]
            for r in records
            if r["n_ues"] == n and r["scheme"] == "skyran"
        ]
        uni = [
            r["relative_throughput"]
            for r in records
            if r["n_ues"] == n and r["scheme"] == "uniform"
        ]
        rows.append(
            {"n_ues": n, "skyran_rel": float(np.mean(sky)), "uniform_rel": float(np.mean(uni))}
        )
    return {"rows": rows, "paper": PAPER}


def claims(result: Dict) -> List[Claim]:
    """SkyRAN stays at or above Uniform across UE counts."""
    rows = result["rows"]
    sky = float(np.mean([r["skyran_rel"] for r in rows]))
    uni = float(np.mean([r["uniform_rel"] for r in rows]))
    return [check("mean skyran_rel", sky, ">=", uni - 0.1, "mean uniform_rel - 0.1")]


EXPERIMENT = register(
    "fig31",
    title="Fig. 31 — relative throughput vs #UEs (NYC)",
    grid=grid,
    point=point,
    aggregate=aggregate,
    claims=claims,
)
