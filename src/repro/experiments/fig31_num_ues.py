"""Fig. 31 — relative throughput vs number of UEs.

NYC, half the UEs relocating per epoch, a 5000 m total budget; sweep
the UE count from 2 to 10.  Runs Fig. 29's point function, so the
6-UE points come from Fig. 29's cache.  Paper: SkyRAN improves roughly
linearly up to ~8 UEs (more UEs = more parallel information per
flight) and stays above Uniform throughout.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.experiments.fig29_budget_terrains import point
from repro.experiments.registry import Claim, check, register

PAPER = "SkyRAN improves with UE count up to ~8 and stays above Uniform"


def grid(quick: bool = True, ue_counts=(2, 4, 6, 8, 10), seeds=(0, 1)) -> List[Dict]:
    return [
        {"terrain": "nyc", "n_ues": int(n), "scheme": scheme, "seed": int(seed)}
        for n in ue_counts
        for scheme in ("skyran", "uniform")
        for seed in seeds
    ]


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
