"""Fig. 26 — flight time to reach 0.9x optimal, STATIC vs DYNAMIC.

Six UEs in the NYC terrain.  STATIC: UEs never move; epochs accumulate
measurement until relative throughput first reaches 0.9.  DYNAMIC:
half the UEs relocate before every epoch.  Paper: SkyRAN needs ~100 s
when static and ~6 min of combined flight when dynamic — about half of
Uniform in both cases.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.experiments.placement_common import overhead_point, reached_count, uncensored
from repro.experiments.registry import Claim, check, register

EPOCH_BUDGET_M = 300.0
TARGET = 0.9

MODES = (("STATIC", 0.0), ("DYNAMIC", 0.5))

PAPER = "SkyRAN ~100 s static / ~6 min dynamic, about half of Uniform"


def grid(quick: bool = True, seeds=(0, 1, 2)) -> List[Dict]:
    return [
        {"mode": mode, "move_fraction": frac, "scheme": scheme, "seed": int(seed)}
        for mode, frac in MODES
        for scheme in ("skyran", "uniform")
        for seed in seeds
    ]


def point(params: Dict, quick: bool = True) -> Dict:
    """Flight time to 0.9x optimal for one (mode, scheme, seed)."""
    out = overhead_point(
        "nyc",
        params["scheme"],
        EPOCH_BUDGET_M,
        params["move_fraction"],
        params["seed"],
        quick,
        target_relative=TARGET,
    )
    out["mode"] = params["mode"]
    return out


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    rows = []
    for mode, _ in MODES:
        sky = [r for r in records if r["mode"] == mode and r["scheme"] == "skyran"]
        uni = [r for r in records if r["mode"] == mode and r["scheme"] == "uniform"]
        sky_s = np.mean([r["time_s"] for r in sky])
        uni_s = np.mean([r["time_s"] for r in uni])
        rows.append(
            {
                "mode": mode,
                "skyran_time_s": float(sky_s),
                "uniform_time_s": float(uni_s),
                "uniform_over_skyran": float(uni_s / max(sky_s, 1e-9)),
                "skyran_reached": reached_count(sky),
                "uniform_reached": reached_count(uni),
            }
        )
    return {"rows": rows, "paper": PAPER}


def claims(result: Dict) -> List[Claim]:
    """Dynamics cost extra flight; SkyRAN needs no more than Uniform (paper: half).

    A claim on a row with a censored run fails: its times are caps.
    """
    rows = {r["mode"]: r for r in result["rows"]}
    static, dynamic = rows["STATIC"], rows["DYNAMIC"]
    out = [
        check(
            "DYNAMIC skyran_time_s", dynamic["skyran_time_s"], ">=",
            static["skyran_time_s"] * 0.5, "STATIC skyran_time_s * 0.5",
            valid=uncensored(static, dynamic),
        )
    ]
    out += [
        check(
            f"{row['mode']} skyran_time_s", row["skyran_time_s"], "<=",
            row["uniform_time_s"] * 1.35, "uniform_time_s * 1.35", valid=uncensored(row),
        )
        for row in result["rows"]
    ]
    return out


EXPERIMENT = register(
    "fig26",
    title="Fig. 26 — overhead to reach 0.9x optimal (NYC)",
    grid=grid,
    point=point,
    aggregate=aggregate,
    claims=claims,
)
