"""Fig. 18 — UE localization error CDF.

Localization errors from 20 m flights on the campus deployment.
Paper: median 5-7 m in a 300 m x 300 m area — an order of magnitude
better than the 50-100 m of macro-cell LTE localization.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.experiments.common import empirical_cdf
from repro.experiments.loc_common import campus_scenario, localization_trial
from repro.experiments.registry import Claim, check, register

FLIGHT_M = 20.0

#: The macro-cell strawman accuracy the paper compares against.
MACRO_CELL_ERROR_M = 75.0

#: Low end of the paper's 50-100 m macro-cell band; the claim sits 2.5x below it.
MACRO_LOW_M = 50.0

PAPER = "median 5-7 m; existing macro-cell techniques: 50-100 m"


def grid(quick: bool = True, seeds=(0, 1, 2, 3, 4, 5, 6, 7)) -> List[Dict]:
    return [{"seed": int(s)} for s in seeds]


def point(params: Dict, quick: bool = True) -> Dict:
    """Per-UE localization errors from one flight."""
    scenario = campus_scenario(seed=0, quick=quick)
    _, pos_errs = localization_trial(scenario, FLIGHT_M, params["seed"])
    return {"position_errors": {str(ue_id): float(err) for ue_id, err in pos_errs.items()}}


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    pooled: Dict[int, list] = {}
    for rec in records:
        for ue_id, err in rec["position_errors"].items():
            pooled.setdefault(int(ue_id), []).append(err)
    rows = []
    for ue_id in sorted(pooled):
        errs = np.asarray(pooled[ue_id])
        rows.append(
            {
                "ue": ue_id,
                "median_m": float(np.median(errs)),
                "p90_m": float(np.percentile(errs, 90)),
            }
        )
    all_errs = np.concatenate([np.asarray(v) for v in pooled.values()])
    rows.append(
        {
            "ue": "all",
            "median_m": float(np.median(all_errs)),
            "p90_m": float(np.percentile(all_errs, 90)),
        }
    )
    rows.append(
        {
            "ue": "macro-strawman",
            "median_m": MACRO_CELL_ERROR_M,
            "p90_m": 100.0,
        }
    )
    return {
        "rows": rows,
        "cdf": empirical_cdf(all_errs),
        "median_m": float(np.median(all_errs)),
        "paper": PAPER,
    }


def claims(result: Dict) -> List[Claim]:
    """An order of magnitude below macro-cell localization (paper: 5-7 m vs 50-100 m)."""
    return [
        check("median_m", result["median_m"], "<", MACRO_LOW_M / 2.5, "50 m macro-cell / 2.5")
    ]


EXPERIMENT = register(
    "fig18",
    title="Fig. 18 — UE localization error CDF",
    grid=grid,
    point=point,
    aggregate=aggregate,
    claims=claims,
)
