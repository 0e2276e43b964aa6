"""Headline claims (abstract / Section 4.5).

On the campus testbed: SkyRAN achieves 0.9-0.95x of optimal throughput
with ~30 s of measurement flight — about 2x Uniform at the same small
budget and ~1.5x Centroid.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.experiments.common import UAV_SPEED_MPS
from repro.experiments.placement_common import scheme_point
from repro.experiments.registry import Claim, check, register

#: "about 30 secs of a measurement flight" at 30 km/h.
HEADLINE_BUDGET_M = 30.0 * UAV_SPEED_MPS

SCHEMES = ("skyran", "uniform", "centroid")

PAPER = "SkyRAN 0.9-0.95x optimal with ~30 s flight; ~2x Uniform, ~1.5x Centroid"


def grid(quick: bool = True, seeds=(0, 1, 2, 3), budget_m: float = None) -> List[Dict]:
    budget = HEADLINE_BUDGET_M if budget_m is None else float(budget_m)
    return [
        {"scheme": scheme, "seed": int(seed), "budget_m": budget}
        for scheme in SCHEMES
        for seed in seeds
    ]


def point(params: Dict, quick: bool = True) -> Dict:
    """One scheme epoch at the headline budget."""
    return scheme_point(
        "campus", 7, "uniform", params["scheme"], params["budget_m"], params["seed"], quick
    )


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    means = {
        scheme: float(
            np.mean([r["relative_throughput"] for r in records if r["scheme"] == scheme])
        )
        for scheme in SCHEMES
    }
    sky, uni, cen = means["skyran"], means["uniform"], means["centroid"]
    rows = [
        {
            "budget_m": records[0]["budget_m"],
            "skyran_rel": sky,
            "uniform_rel": uni,
            "centroid_rel": cen,
            "sky_over_uniform": sky / max(uni, 1e-9),
            "sky_over_centroid": sky / max(cen, 1e-9),
        }
    ]
    return {"rows": rows, "paper": PAPER}


def claims(result: Dict) -> List[Claim]:
    """Most of optimal from a short flight, beating both baselines."""
    row = result["rows"][0]
    return [
        check("skyran_rel", row["skyran_rel"], ">", 0.75),
        check("sky_over_uniform", row["sky_over_uniform"], ">", 1.0),
        check("sky_over_centroid", row["sky_over_centroid"], ">", 1.0),
    ]


EXPERIMENT = register(
    "headline",
    title="Headline — SkyRAN vs baselines at ~30 s budget",
    grid=grid,
    point=point,
    aggregate=aggregate,
    claims=claims,
)
