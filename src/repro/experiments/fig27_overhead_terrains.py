"""Fig. 27 — flight time to reach 0.9x optimal across terrains.

Same procedure as Fig. 26 (static UEs) over RURAL, NYC and LARGE.
Paper: overhead grows with terrain size/complexity, and SkyRAN stays
well under Uniform everywhere except the trivially flat RURAL case.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.experiments.placement_common import overhead_point, reached_count, uncensored
from repro.experiments.registry import Claim, check, register

TARGET = 0.9

#: Larger terrains get proportionally larger per-epoch budgets.
EPOCH_BUDGETS = {"rural": 250.0, "nyc": 300.0, "large": 1200.0}

PAPER = "overhead grows with terrain scale; SkyRAN below Uniform in NYC/LARGE"


def grid(quick: bool = True, seeds=(0, 1)) -> List[Dict]:
    return [
        {"terrain": terrain, "scheme": scheme, "seed": int(seed)}
        for terrain in ("rural", "nyc", "large")
        for scheme in ("skyran", "uniform")
        for seed in seeds
    ]


def point(params: Dict, quick: bool = True) -> Dict:
    """Flight time to 0.9x optimal for one (terrain, scheme, seed)."""
    terrain = params["terrain"]
    out = overhead_point(
        terrain,
        params["scheme"],
        EPOCH_BUDGETS[terrain],
        0.0,
        params["seed"],
        quick,
        target_relative=TARGET,
    )
    out["terrain"] = terrain
    return out


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    rows = []
    for terrain in ("rural", "nyc", "large"):
        sky = [r for r in records if r["terrain"] == terrain and r["scheme"] == "skyran"]
        uni = [r for r in records if r["terrain"] == terrain and r["scheme"] == "uniform"]
        rows.append(
            {
                "terrain": terrain,
                "skyran_time_min": float(np.mean([r["time_s"] for r in sky])) / 60.0,
                "uniform_time_min": float(np.mean([r["time_s"] for r in uni])) / 60.0,
                "skyran_reached": reached_count(sky),
                "uniform_reached": reached_count(uni),
            }
        )
    return {"rows": rows, "paper": PAPER}


def claims(result: Dict) -> List[Claim]:
    """The 16x-larger LARGE terrain costs more flight than RURAL, for both schemes.

    A claim on a row with a censored run fails: its times are caps.
    """
    rows = {r["terrain"]: r for r in result["rows"]}
    large, rural = rows["large"], rows["rural"]
    return [
        check(
            f"large {scheme}_time_min", large[f"{scheme}_time_min"], ">",
            rural[f"{scheme}_time_min"], f"rural {scheme}_time_min",
            valid=uncensored(large, rural),
        )
        for scheme in ("skyran", "uniform")
    ]


EXPERIMENT = register(
    "fig27",
    title="Fig. 27 — overhead to 0.9x optimal per terrain",
    grid=grid,
    point=point,
    aggregate=aggregate,
    claims=claims,
)
