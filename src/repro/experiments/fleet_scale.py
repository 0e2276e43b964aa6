"""Fleet scaling — aggregate/min throughput vs fleet size and reuse.

Not a figure from the paper: the SkyLiTE companion work argues a
*fleet* of co-channel sky cells trades sectorization gain (shorter
links) against co-channel interference, steered by the frequency
reuse factor.  This experiment sweeps fleet size over two region
sizes (the 300 m campus and the 1 km township) and, at each deployed
fleet, re-evaluates the same placement/association under every reuse
factor — placement and association are paid once per point at full
reuse pressure (reuse=1), the reuse sweep is evaluation-only.

Expected shape: aggregate throughput grows with fleet size (each cell
serves a tighter sector); the worst-served UE's throughput degrades
monotonically as reuse tightens toward 1 (more co-channel neighbours),
with the drop steepest on the small region where cells are packed.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.config import SkyRANConfig
from repro.core.fleet import FleetController
from repro.experiments.common import QUICK_REM_CELL_M, scenario_for
from repro.experiments.registry import register

PAPER = (
    "SkyLiTE framing: sectorization gain vs co-channel interference; "
    "min throughput should degrade monotonically as reuse -> 1"
)

DEFAULT_TERRAINS = ("campus", "large")
DEFAULT_FLEET_SIZES = (1, 2, 3)


def grid(
    quick: bool = True,
    seeds: Sequence[int] = (0, 1),
    terrains: Sequence[str] = DEFAULT_TERRAINS,
    fleet_sizes: Sequence[int] = DEFAULT_FLEET_SIZES,
) -> List[Dict]:
    """One point per (terrain, fleet size, seed); the reuse sweep lives
    inside the point so the expensive fleet epoch is paid once."""
    return [
        {"terrain": str(terrain), "n_uavs": int(n), "seed": int(seed)}
        for terrain in terrains
        for n in fleet_sizes
        for seed in seeds
    ]


def point(params: Dict, quick: bool = True) -> Dict:
    """One fleet epoch, then the evaluation-only reuse sweep."""
    terrain = params["terrain"]
    n_uavs = params["n_uavs"]
    seed = params["seed"]
    n_ues = 6 if quick else 12
    budget_m = 250.0 if quick else 1000.0

    scenario = scenario_for(terrain, n_ues=n_ues, layout="uniform", seed=seed,
                            quick=quick)
    # The fleet re-homes UEs onto per-cell eNodeBs.
    for ue in list(scenario.enodeb.ues):
        scenario.enodeb.deregister_ue(ue.ue_id)
    fleet = FleetController(
        channel=scenario.channel,
        ues=list(scenario.ues),
        n_uavs=n_uavs,
        config=SkyRANConfig(
            rem_cell_size_m=(QUICK_REM_CELL_M if quick else 1.0) * 2.0
        ),
        seed=seed,
        reuse_factor=1,  # deploy under full reuse pressure
    )
    result = fleet.run_epoch(budget_per_uav_m=budget_m)

    rows = []
    for reuse in range(1, n_uavs + 1):
        ev = fleet.evaluate(reuse_factor=reuse)
        rows.append(
            {
                "terrain": terrain,
                "n_uavs": n_uavs,
                "reuse_factor": reuse,
                "aggregate_mbps": float(ev.aggregate_throughput_mbps),
                "min_mbps": float(ev.min_throughput_mbps),
            }
        )
    return {
        "terrain": terrain,
        "n_uavs": n_uavs,
        "seed": seed,
        "handovers": int(result.handovers),
        "attaches": int(result.attaches),
        "flight_distance_m": float(result.total_flight_distance_m),
        "rows": rows,
    }


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    """Average the per-seed sweeps per (terrain, n_uavs, reuse)."""
    groups: Dict[tuple, List[Dict]] = {}
    order: List[tuple] = []
    for rec in records:
        for row in rec["rows"]:
            key = (row["terrain"], row["n_uavs"], row["reuse_factor"])
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)
    rows = []
    for key in order:
        rs = groups[key]
        rows.append(
            {
                "terrain": key[0],
                "n_uavs": key[1],
                "reuse_factor": key[2],
                "aggregate_mbps": float(np.mean([r["aggregate_mbps"] for r in rs])),
                "min_mbps": float(np.mean([r["min_mbps"] for r in rs])),
            }
        )
    handovers = {}
    for rec in records:
        key = f"{rec['terrain']}/n{rec['n_uavs']}"
        handovers[key] = handovers.get(key, 0) + rec["handovers"]
    return {"rows": rows, "handovers": handovers, "paper": PAPER}


EXPERIMENT = register(
    "fleet_scale",
    title="Fleet scaling — throughput vs fleet size & frequency reuse",
    grid=grid,
    point=point,
    aggregate=aggregate,
)
