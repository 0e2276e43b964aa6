"""Fig. 19 — localization error vs flight length.

Median localization error as the localization-flight budget grows.
Paper: improves up to ~20 m of flight and is flat beyond — longer
flights buy nothing.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.experiments.loc_common import campus_scenario, localization_trial
from repro.experiments.registry import Claim, check, register

PAPER = "error drops until ~20 m of flight, flat beyond"


def grid(
    quick: bool = True,
    lengths=(5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
    seeds=(0, 1, 2, 3),
) -> List[Dict]:
    return [
        {"flight_m": float(length), "seed": int(seed)}
        for length in lengths
        for seed in seeds
    ]


def point(params: Dict, quick: bool = True) -> Dict:
    """Localization errors of one (flight length, seed) trial."""
    scenario = campus_scenario(seed=0, quick=quick)
    _, pos_errs = localization_trial(scenario, params["flight_m"], params["seed"])
    return {"flight_m": params["flight_m"], "errors": [float(e) for e in pos_errs.values()]}


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    by_length: Dict[float, list] = {}
    order: List[float] = []
    for rec in records:
        length = rec["flight_m"]
        if length not in by_length:
            by_length[length] = []
            order.append(length)
        by_length[length].extend(rec["errors"])
    rows = []
    for length in order:
        errs = by_length[length]
        rows.append(
            {
                "flight_m": float(length),
                "median_err_m": float(np.median(errs)),
                "p90_err_m": float(np.percentile(errs, 90)),
            }
        )
    return {"rows": rows, "paper": PAPER}


def claims(result: Dict) -> List[Claim]:
    """Very short flights are far worse; accuracy saturates by a few tens of m."""
    first, last = result["rows"][0], result["rows"][-1]
    return [
        check(
            f"{first['flight_m']:g} m median_err_m", first["median_err_m"], ">",
            2.0 * last["median_err_m"], f"2.0 * {last['flight_m']:g} m median_err_m",
        )
    ]


EXPERIMENT = register(
    "fig19",
    title="Fig. 19 — localization error vs flight length",
    grid=grid,
    point=point,
    aggregate=aggregate,
    claims=claims,
)
