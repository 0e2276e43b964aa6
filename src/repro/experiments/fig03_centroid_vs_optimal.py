"""Fig. 3 — centroid placement is suboptimal.

Three UEs on the campus terrain; compare the true average throughput
at the UE centroid against the optimal position from the ground-truth
map.  Paper: the centroid costs ~30-50% of throughput, more in complex
terrain.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.experiments.common import scenario_for
from repro.experiments.registry import Claim, check, register
from repro.geo.points import Point3D

ALTITUDE_M = 60.0

PAPER = "centroid achieves ~30-50% lower throughput than the optimal position"


def grid(quick: bool = True, seeds=(0, 1, 2, 3, 4)) -> List[Dict]:
    return [{"seed": int(s)} for s in seeds]


def point(params: Dict, quick: bool = True) -> Dict:
    """Centroid-vs-optimal gap for one UE draw."""
    seed = params["seed"]
    scenario = scenario_for("campus", n_ues=3, seed=seed, quick=quick)
    centroid_xy = np.mean([u.xyz[:2] for u in scenario.ues], axis=0)
    centroid = Point3D(float(centroid_xy[0]), float(centroid_xy[1]), ALTITUDE_M)
    opt_pos, opt_tput = scenario.optimal_position(ALTITUDE_M, "avg")
    cen_tput = scenario.evaluate(centroid).avg_throughput_mbps
    ratio = cen_tput / opt_tput if opt_tput > 0 else 0.0
    return {
        "seed": seed,
        "centroid_mbps": float(cen_tput),
        "optimal_mbps": float(opt_tput),
        "centroid_over_optimal": float(ratio),
    }


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    rows = [dict(r) for r in records]
    ratios = [r["centroid_over_optimal"] for r in records]
    rows.append(
        {
            "seed": "mean",
            "centroid_mbps": float(np.mean([r["centroid_mbps"] for r in records])),
            "optimal_mbps": float(np.mean([r["optimal_mbps"] for r in records])),
            "centroid_over_optimal": float(np.mean(ratios)),
        }
    )
    return {"rows": rows, "mean_ratio": float(np.mean(ratios)), "paper": PAPER}


def claims(result: Dict) -> List[Claim]:
    """The centroid leaves a large share of optimal on the table (paper: 30-50%)."""
    return [check("mean_ratio", result["mean_ratio"], "<", 0.85)]


EXPERIMENT = register(
    "fig3",
    title="Fig. 3 — centroid vs optimal placement (campus, 3 UEs)",
    grid=grid,
    point=point,
    aggregate=aggregate,
    claims=claims,
)
