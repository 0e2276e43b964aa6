"""Traffic figure — served throughput and fairness vs offered load.

Not a figure from the paper: the SkyLiTE companion work frames
UAV-cell capacity as only meaningful relative to the *offered load* of
the users it serves.  This experiment drives the new traffic subsystem
over a load sweep — Poisson per-UE arrivals at increasing rates —
through the three TTI schedulers, at two placements of the same cell:
the SkyRAN REM-driven position and the centroid baseline.

Expected shape: at low load every scheduler serves everything at both
placements (the cell is capacity-rich); as load grows the centroid
placement saturates first — its worst UE's SNR is lower, so the same
offered load costs more PRBs — and the schedulers separate: max-min
holds per-UE fairness at the cost of aggregate served rate,
proportional-fair lands between round-robin and max-min.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.common import scenario_for
from repro.experiments.placement_common import TESTBED_ALTITUDE_M
from repro.experiments.registry import register
from repro.sim.metrics import jain_fairness
from repro.traffic.simulate import MACSimulation

PAPER = (
    "SkyLiTE framing: capacity only matters vs offered load; "
    "REM-driven placement should saturate later than centroid"
)

#: Offered load sweep (mean Mb/s per UE, Poisson arrivals).
DEFAULT_LOADS = (1.0, 2.0, 4.0, 8.0)

DEFAULT_SCHEDULERS = ("round_robin", "proportional_fair", "max_min")


def grid(
    quick: bool = True,
    seeds: Sequence[int] = (0, 1, 2),
    loads: Sequence[float] = DEFAULT_LOADS,
    schedulers: Optional[Sequence[str]] = None,
) -> List[Dict]:
    """One point per seed; the load x scheduler sweep lives inside the
    point so the expensive placement epochs are paid once per seed."""
    scheds = list(schedulers if schedulers is not None else DEFAULT_SCHEDULERS)
    return [
        {"seed": int(seed), "loads": [float(l) for l in loads], "schedulers": scheds}
        for seed in seeds
    ]


def point(params: Dict, quick: bool = True) -> Dict:
    """MAC sweep at the SkyRAN and centroid placements for one seed."""
    from repro.experiments.common import centroid_for, skyran_for

    seed = params["seed"]
    n_tti = 400 if quick else 2000
    scenario = scenario_for("campus", n_ues=5, layout="uniform", seed=seed, quick=quick)
    sky = skyran_for(scenario, seed=seed, quick=quick)
    sky.altitude = TESTBED_ALTITUDE_M
    sky_pos = sky.run_epoch().placement.position
    # Fresh scenario: controllers mutate UE/EPC state.
    scenario = scenario_for("campus", n_ues=5, layout="uniform", seed=seed, quick=quick)
    cen = centroid_for(scenario, altitude=TESTBED_ALTITUDE_M, seed=seed, quick=quick)
    cen_pos = cen.run_epoch().position

    rows = []
    for placement, pos in (("skyran", sky_pos), ("centroid", cen_pos)):
        snr = scenario.evaluate(pos).snr_db
        ue_ids = sorted(snr)
        for load in params["loads"]:
            for sched in params["schedulers"]:
                sim = MACSimulation(
                    ue_ids,
                    traffic_model="poisson",
                    scheduler=sched,
                    seed=seed,
                    traffic_params={"rate_mbps": load},
                )
                batch = sim.run(snr, n_tti)
                served = batch.served_mbps()
                rows.append(
                    {
                        "placement": placement,
                        "scheduler": sched,
                        "offered_mbps_per_ue": float(load),
                        "served_mbps_per_ue": float(served.mean()),
                        "min_served_mbps": float(served.min()),
                        "fairness": jain_fairness(served),
                        "backlog_bytes": batch.total_backlog_bytes(),
                    }
                )
    return {"seed": seed, "rows": rows}


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    """Average the per-seed sweeps per (placement, scheduler, load)."""
    groups: Dict[tuple, List[Dict]] = {}
    order: List[tuple] = []
    for rec in records:
        for row in rec["rows"]:
            key = (row["placement"], row["scheduler"], row["offered_mbps_per_ue"])
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)
    rows = []
    for key in order:
        rs = groups[key]
        rows.append(
            {
                "placement": key[0],
                "scheduler": key[1],
                "offered_mbps_per_ue": key[2],
                "served_mbps_per_ue": float(
                    np.mean([r["served_mbps_per_ue"] for r in rs])
                ),
                "min_served_mbps": float(np.mean([r["min_served_mbps"] for r in rs])),
                "fairness": float(np.mean([r["fairness"] for r in rs])),
            }
        )
    return {"rows": rows, "paper": PAPER}


EXPERIMENT = register(
    "traffic-load",
    title="Traffic — served throughput & fairness vs offered load",
    grid=grid,
    point=point,
    aggregate=aggregate,
)
