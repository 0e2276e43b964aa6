"""Fig. 8 — path loss has an interior minimum over altitude.

Path loss from a UAV hovering at a fixed horizontal offset from a UE,
as a function of altitude.  Descending shortens the slant range
(free-space loss falls) until terrain shadowing cuts the direct ray;
below that, loss explodes.  Paper: loss falls with altitude to a
minimum and rises steeply below ~20-30 m.

Controlled geometry: flat ground, one 18 m building between the hover
point and the UE, 100 m horizontal offset.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.channel.model import ChannelModel
from repro.core.placement import find_optimal_altitude
from repro.experiments.registry import Claim, check, register
from repro.terrain.generators import make_flat

PAPER = "interior minimum: descending reduces loss until shadowing dominates"


def grid(quick: bool = True, seed: int = 0) -> List[Dict]:
    return [{"seed": int(seed)}]


def point(params: Dict, quick: bool = True) -> Dict:
    """Path-loss-vs-altitude profile and the tracked optimum."""
    del quick
    terrain = make_flat(size=250.0, cell_size=1.0, name="fig8")
    # A narrow 10 m structure midway: high altitudes clear it
    # easily, low altitudes graze it.
    terrain = terrain.with_box(120.0, 119.0, 126.0, 131.0, 10.0)
    channel = ChannelModel(terrain, seed=params["seed"])
    ue_xyz = np.array([150.0, 125.0, 1.5])
    hover_xy = np.array([100.0, 125.0])  # structure sits between them

    altitudes = np.arange(10.0, 121.0, 5.0)
    losses = np.array(
        [
            float(channel.path_loss_db(np.array([hover_xy[0], hover_xy[1], a]), ue_xyz))
            for a in altitudes
        ]
    )

    def pl_at(alt: float) -> float:
        return float(
            channel.path_loss_db(np.array([hover_xy[0], hover_xy[1], alt]), ue_xyz)
        )

    tracked = find_optimal_altitude(pl_at, 120.0, 10.0, 10.0)
    best = float(altitudes[int(np.argmin(losses))])
    row = {
        "best_altitude_m": best,
        "tracked_altitude_m": tracked,
        "loss_at_best_db": float(losses.min()),
        "loss_at_120m_db": float(losses[-1]),
        "loss_at_10m_db": float(losses[0]),
    }
    return {"row": row, "altitudes_m": altitudes, "path_loss_db": losses}


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    rec = records[0]
    return {
        "rows": [rec["row"]],
        "altitudes_m": np.asarray(rec["altitudes_m"]),
        "path_loss_db": np.asarray(rec["path_loss_db"]),
        "paper": PAPER,
    }


def claims(result: Dict) -> List[Claim]:
    """An interior minimum that descend-and-track lands near."""
    row = result["rows"][0]
    losses = np.asarray(result["path_loss_db"])
    best = row["best_altitude_m"]
    return [
        check("loss_at_best_db", row["loss_at_best_db"], "<", row["loss_at_120m_db"],
              "loss_at_120m_db"),
        check("loss_at_best_db", row["loss_at_best_db"], "<", row["loss_at_10m_db"],
              "loss_at_10m_db"),
        check("best_altitude_m", best, ">", 10.0),
        check("best_altitude_m", best, "<", 120.0),
        check("abs(tracked_altitude_m - best_altitude_m)", abs(row["tracked_altitude_m"] - best),
              "<=", 15.0),
        check("path_loss_db[0]", losses[0], ">", losses.min() + 5.0, "min(path_loss_db) + 5.0"),
    ]


EXPERIMENT = register(
    "fig8",
    title="Fig. 8 — path loss vs UAV altitude",
    grid=grid,
    point=point,
    aggregate=aggregate,
    claims=claims,
)
