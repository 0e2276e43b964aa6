"""Fig. 30 — median REM accuracy at the 5000 m budget, by terrain.

A focused view of the REM columns of the Fig. 29 run (same procedure:
half the UEs move per epoch, 5000 m total across epochs).  Registers
Fig. 29's point function, as Fig. 31 does, so the figures share one
set of cached point computations in the artifact store.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.experiments.fig29_budget_terrains import TERRAINS, grid, point
from repro.experiments.registry import Claim, check, register

PAPER = "SkyRAN REMs several dB more accurate than Uniform on NYC/LARGE"


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    rows = []
    for terrain in TERRAINS:
        sky = [r for r in records if r["terrain"] == terrain and r["scheme"] == "skyran"]
        uni = [r for r in records if r["terrain"] == terrain and r["scheme"] == "uniform"]
        rows.append(
            {
                "terrain": terrain,
                "skyran_rem_db": float(np.mean([r["rem_error_db"] for r in sky])),
                "uniform_rem_db": float(np.mean([r["rem_error_db"] for r in uni])),
            }
        )
    return {"rows": rows, "paper": PAPER}


def claims(result: Dict) -> List[Claim]:
    """SkyRAN's maps at least as accurate as Uniform's on the complex terrains."""
    rows = {r["terrain"]: r for r in result["rows"]}
    return [
        check(
            f"{terrain} skyran_rem_db", rows[terrain]["skyran_rem_db"], "<=",
            rows[terrain]["uniform_rem_db"] + 1.5, "uniform_rem_db + 1.5",
        )
        for terrain in ("nyc", "large")
    ]


EXPERIMENT = register(
    "fig30",
    title="Fig. 30 — median REM accuracy at 5000 m budget",
    grid=grid,
    point=point,
    aggregate=aggregate,
    claims=claims,
)
