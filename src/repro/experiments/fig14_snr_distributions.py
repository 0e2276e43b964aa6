"""Fig. 14 — per-UE SNR distributions during one flight.

Fly a sweep over the campus and histogram the per-sample SNR each UE
reports.  Paper: UEs see highly varying channels over the flight,
with distinct per-UE distributions spanning roughly -20..50 dB.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.experiments.common import scenario_for
from repro.experiments.registry import Claim, check, register
from repro.flight.sampler import collect_snr_samples
from repro.flight.uav import UAV
from repro.trajectory.uniform import zigzag_for_budget

ALTITUDE_M = 60.0
BUDGET_M = 2000.0

PAPER = "per-UE SNR distributions span roughly -20..50 dB with wide per-UE spread"


def grid(quick: bool = True, seed: int = 0) -> List[Dict]:
    return [{"seed": int(seed)}]


def point(params: Dict, quick: bool = True) -> Dict:
    """Per-UE SNR sample statistics over one measurement flight."""
    seed = params["seed"]
    scenario = scenario_for("campus", n_ues=7, seed=seed, quick=quick)
    rng = np.random.default_rng(seed)
    grid_ = scenario.grid
    traj = zigzag_for_budget(grid_, BUDGET_M, ALTITUDE_M)
    uav = UAV(position=np.array([grid_.origin_x, grid_.origin_y, ALTITUDE_M]))
    log = uav.fly(traj, rng)
    rows = []
    samples = {}
    reports = collect_snr_samples(log, scenario.ues, scenario.channel, rng)
    for ue, (_, snr) in zip(scenario.ues, reports):
        samples[ue.ue_id] = snr
        rows.append(
            {
                "ue": ue.ue_id,
                "snr_p5_db": float(np.percentile(snr, 5)),
                "snr_median_db": float(np.median(snr)),
                "snr_p95_db": float(np.percentile(snr, 95)),
                "snr_spread_db": float(np.percentile(snr, 95) - np.percentile(snr, 5)),
            }
        )
    return {"rows": rows, "samples": samples}


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    rec = records[0]
    samples = {int(ue_id): np.asarray(snr) for ue_id, snr in rec["samples"].items()}
    return {"rows": rec["rows"], "samples": samples, "paper": PAPER}


def claims(result: Dict) -> List[Claim]:
    """Every UE sees tens of dB of SNR spread, mild and harsh UEs mixed."""
    rows = result["rows"]
    out = [
        check(f"UE {row['ue']} snr_spread_db", row["snr_spread_db"], ">", 8.0) for row in rows
    ]
    spreads = [row["snr_spread_db"] for row in rows]
    out.append(
        check("max snr_spread_db", max(spreads), ">", 1.5 * min(spreads),
              "1.5 * min snr_spread_db")
    )
    return out


EXPERIMENT = register(
    "fig14",
    title="Fig. 14 — per-UE SNR distributions in flight",
    grid=grid,
    point=point,
    aggregate=aggregate,
    claims=claims,
)
