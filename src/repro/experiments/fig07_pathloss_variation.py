"""Fig. 7 — path loss swings hard while the UAV moves.

Path loss from the UAV to one UE along a 50 m flight segment that
crosses a building's radio shadow — the situation every measurement
flight keeps creating.  Paper: 77-95 dB over 50 m (~20 dB swing),
which is why probing time must be minimized (LTE service degrades
while the channel whips around).

The geometry is controlled (flat ground + one 20 m building between
the segment and the UE) so the LOS->NLOS crossing is guaranteed; the
campus-terrain experiments exercise the same physics in the wild.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.channel.model import ChannelModel
from repro.experiments.registry import Claim, check, register
from repro.terrain.generators import make_flat

ALTITUDE_M = 30.0
SEGMENT_M = 50.0

PAPER = "path loss varies 77->95 dB (~20 dB swing) over a 50 m segment"


def grid(quick: bool = True, seed: int = 0) -> List[Dict]:
    return [{"seed": int(seed)}]


def point(params: Dict, quick: bool = True) -> Dict:
    """Path loss profile across a building-shadow boundary."""
    del quick  # the controlled geometry is already tiny
    terrain = make_flat(size=250.0, cell_size=1.0, name="fig7")
    # A narrow 20 m tower; the UE stands well east of it, so the
    # tower's radio shadow is a wedge the flight crosses mid-segment.
    terrain = terrain.with_box(120.0, 112.0, 135.0, 128.0, 20.0)
    channel = ChannelModel(terrain, seed=params["seed"])
    ue_xyz = np.array([180.0, 120.0, 1.5])
    # Fly north-south well west of the tower: the middle of the
    # segment is shadowed, both ends see the UE around the tower.
    ys = np.linspace(90.0, 90.0 + SEGMENT_M, 101)
    positions = np.column_stack(
        [np.full_like(ys, 60.0), ys, np.full_like(ys, ALTITUDE_M)]
    )
    loss = channel.path_loss_db(positions, ue_xyz)
    arc = ys - ys[0]
    swing = float(loss.max() - loss.min())
    row = {
        "min_pl_db": float(loss.min()),
        "max_pl_db": float(loss.max()),
        "swing_db": swing,
        "segment_m": SEGMENT_M,
    }
    return {"row": row, "arc_m": arc, "path_loss_db": loss}


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    rec = records[0]
    return {
        "rows": [rec["row"]],
        "arc_m": np.asarray(rec["arc_m"]),
        "path_loss_db": np.asarray(rec["path_loss_db"]),
        "paper": PAPER,
    }


def claims(result: Dict) -> List[Claim]:
    """The segment swings by tens of dB (paper: ~20 dB)."""
    return [check("swing_db", result["rows"][0]["swing_db"], ">", 15.0)]


EXPERIMENT = register(
    "fig7",
    title="Fig. 7 — path loss variation along a 50 m flight",
    grid=grid,
    point=point,
    aggregate=aggregate,
    claims=claims,
)
