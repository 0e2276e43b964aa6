"""Fig. 1 — why UAV positioning matters.

20 UEs in a Manhattan-like terrain; the per-position average UE
throughput map (Fig. 1a) and its CDF (Fig. 1b).  Paper landmarks:
optimal ~30.3 Mb/s, poor positions ~3.7 Mb/s, only ~5% of positions
above 26 Mb/s, and that 26 Mb/s level sits ~52% above the median.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.experiments.common import scenario_for
from repro.experiments.registry import Claim, check, register
from repro.lte.throughput import throughput_mbps

#: Operating altitude of the Fig. 1 sweep.  High enough that most of
#: the 20-120 m Manhattan blocks are cleared from typical positions
#: (LOS links sit mid-CQI at these ranges) while street canyons still
#: carve deep shadows — the texture of the paper's map.
ALTITUDE_M = 100.0

PAPER = "optimal 30.3 Mb/s, poor 3.7, ~5% of positions >= 26 Mb/s (~52% over median)"


def grid(quick: bool = True, seed: int = 0) -> List[Dict]:
    return [{"seed": int(seed)}]


def point(params: Dict, quick: bool = True) -> Dict:
    """The Fig. 1 throughput map and its summary statistics."""
    scenario = scenario_for(
        "nyc", n_ues=20, layout="pockets", seed=params["seed"], quick=quick
    )
    stack = scenario.truth_maps(ALTITUDE_M)
    tput = throughput_mbps(stack)  # (n_ue, ny, nx)
    avg_map = tput.mean(axis=0)

    optimal = float(avg_map.max())
    poor = float(avg_map.min())
    median = float(np.median(avg_map))
    good_level = 26.0
    frac_good = float(np.mean(avg_map >= good_level))
    row = {
        "optimal_mbps": optimal,
        "median_mbps": median,
        "poor_mbps": poor,
        "frac_ge_26mbps": frac_good,
        "good_over_median": (good_level / median - 1.0) if median > 0 else float("inf"),
    }
    return {"row": row, "avg_map": avg_map, "cdf_values": np.sort(avg_map.ravel())}


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    rec = records[0]
    return {
        "rows": [rec["row"]],
        "avg_map": np.asarray(rec["avg_map"]),
        "cdf_values": np.asarray(rec["cdf_values"]),
        "paper": PAPER,
    }


def claims(result: Dict) -> List[Claim]:
    """Favourable positions are rare and far above the median."""
    row = result["rows"][0]
    return [
        check("frac_ge_26mbps", row["frac_ge_26mbps"], "<", 0.15),
        check("optimal_mbps", row["optimal_mbps"], ">", 25.0),
        check(
            "optimal_mbps", row["optimal_mbps"], ">", 2.0 * row["median_mbps"],
            "2.0 * median_mbps",
        ),
    ]


EXPERIMENT = register(
    "fig1",
    title="Fig. 1 — UAV positioning motivation (NYC, 20 UEs)",
    grid=grid,
    point=point,
    aggregate=aggregate,
    claims=claims,
)
