"""Fig. 21 — Centroid placement quality vs number of UEs.

Average relative throughput of the Centroid scheme as the UE count
grows.  Paper: only 0.4-0.6x of optimal — lowest and most variable
with few UEs, "averaging out" somewhat with more UEs.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.experiments.placement_common import scheme_point
from repro.experiments.registry import Claim, check, register

PAPER = "Centroid reaches only ~0.4-0.6x of optimal, higher variance with few UEs"


def grid(quick: bool = True, ue_counts=(2, 3, 4, 5, 6, 7), seeds=(0, 1, 2, 3, 4)) -> List[Dict]:
    return [
        {"n_ues": int(n), "seed": int(seed)} for n in ue_counts for seed in seeds
    ]


def point(params: Dict, quick: bool = True) -> Dict:
    """Centroid relative throughput for one (UE count, seed)."""
    out = scheme_point(
        "campus", params["n_ues"], "uniform", "centroid", 0.0, params["seed"], quick
    )
    out["n_ues"] = params["n_ues"]
    return out


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    counts = []
    for rec in records:
        if rec["n_ues"] not in counts:
            counts.append(rec["n_ues"])
    rows = []
    for n in counts:
        rels = [r["relative_throughput"] for r in records if r["n_ues"] == n]
        rows.append(
            {
                "n_ues": n,
                "centroid_relative": float(np.mean(rels)),
                "std": float(np.std(rels)),
            }
        )
    return {"rows": rows, "paper": PAPER}


def claims(result: Dict) -> List[Claim]:
    """Centroid leaves a large gap at every UE count (paper: 0.4-0.6x)."""
    rows = result["rows"]
    mean_rel = float(np.mean([r["centroid_relative"] for r in rows]))
    out = [check("mean centroid_relative", mean_rel, "<", 0.85)]
    out += [
        check(f"{row['n_ues']} UEs centroid_relative", row["centroid_relative"], "<", 1.0)
        for row in rows
    ]
    return out


EXPERIMENT = register(
    "fig21",
    title="Fig. 21 — Centroid relative throughput vs #UEs",
    grid=grid,
    point=point,
    aggregate=aggregate,
    claims=claims,
)
