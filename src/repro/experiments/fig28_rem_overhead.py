"""Fig. 28 — flight time to reach a 5 dB REM, STATIC vs DYNAMIC.

The REM-accuracy counterpart of Fig. 26: cumulative flight time until
the median REM error first drops to 5 dB, NYC with six UEs, static vs
half-the-UEs-move-per-epoch dynamics.  Paper: SkyRAN roughly halves
Uniform's overhead in both modes.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.experiments.placement_common import overhead_point, reached_count, uncensored
from repro.experiments.registry import Claim, check, register

EPOCH_BUDGET_M = 300.0
TARGET_DB = 5.0

MODES = (("STATIC", 0.0), ("DYNAMIC", 0.5))

PAPER = "SkyRAN reaches 5 dB REMs in about half Uniform's flight time"


def grid(quick: bool = True, seeds=(0, 1, 2)) -> List[Dict]:
    return [
        {"mode": mode, "move_fraction": frac, "scheme": scheme, "seed": int(seed)}
        for mode, frac in MODES
        for scheme in ("skyran", "uniform")
        for seed in seeds
    ]


def point(params: Dict, quick: bool = True) -> Dict:
    """Flight time to a <=5 dB REM for one (mode, scheme, seed)."""
    out = overhead_point(
        "nyc",
        params["scheme"],
        EPOCH_BUDGET_M,
        params["move_fraction"],
        params["seed"],
        quick,
        metric="rem",
        target_rem_db=TARGET_DB,
    )
    out["mode"] = params["mode"]
    return out


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    rows = []
    for mode, _ in MODES:
        sky = [r for r in records if r["mode"] == mode and r["scheme"] == "skyran"]
        uni = [r for r in records if r["mode"] == mode and r["scheme"] == "uniform"]
        rows.append(
            {
                "mode": mode,
                "skyran_time_min": float(np.mean([r["time_s"] for r in sky])) / 60.0,
                "uniform_time_min": float(np.mean([r["time_s"] for r in uni])) / 60.0,
                "skyran_reached": reached_count(sky),
                "uniform_reached": reached_count(uni),
            }
        )
    return {"rows": rows, "paper": PAPER}


def claims(result: Dict) -> List[Claim]:
    """SkyRAN reaches accurate maps in no more flight than Uniform (paper: half).

    A claim on a row with a censored run fails: its times are caps.
    """
    return [
        check(
            f"{row['mode']} skyran_time_min", row["skyran_time_min"], "<=",
            row["uniform_time_min"] * 1.35, "uniform_time_min * 1.35", valid=uncensored(row),
        )
        for row in result["rows"]
    ]


EXPERIMENT = register(
    "fig28",
    title="Fig. 28 — overhead to 5 dB REM accuracy (NYC)",
    grid=grid,
    point=point,
    aggregate=aggregate,
    claims=claims,
)
