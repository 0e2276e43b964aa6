"""Attach storm — control-plane resilience of the sky cell.

Not a figure from the paper, but the deployment story behind it:
SkyRAN's pitch is coverage for gatherings (stadiums, disaster relief)
— exactly the settings where the *control plane*, not the data plane,
breaks first.  This experiment drives the event-driven attach layer
(:mod:`repro.events`) through three arrival profiles at increasing
population sizes, with and without a mid-run attach storm from the
fault layer, and reports how the RACH holds up: attach success,
collision and barring rates, time-to-90%-attached, and the serving
KPIs of the epochs the trigger re-planned.

Expected shape: ``uniform`` arrivals sail through (collisions near
zero); ``stadium`` ramps collide moderately and access-class barring
engages near the peak; ``flash_crowd`` is the stress case — collisions
and barring dominate, yet conservation holds (every spawned UE ends
attached, detached, or failed) and the cell recovers after the surge.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.events.simulate import EventConfig
from repro.experiments.common import scenario_for
from repro.experiments.registry import register
from repro.faults.plan import FaultPlan
from repro.sim.runner import run_simulation

PAPER = (
    "Deployment framing (Sections 1, 5.2): gatherings are SkyRAN's "
    "target setting; the attach control plane must survive the crowd "
    "it was deployed for"
)

DEFAULT_ARRIVALS = ("uniform", "stadium", "flash_crowd")


def grid(
    quick: bool = True,
    seeds: Sequence[int] = (0, 1),
    arrivals: Sequence[str] = DEFAULT_ARRIVALS,
    n_ues: Sequence[int] = (8, 16),
    storm: Sequence[bool] = (False, True),
) -> List[Dict]:
    """One point per (seed, arrival profile, population, storm)."""
    return [
        {
            "seed": int(seed),
            "arrival": str(arrival),
            "n_ues": int(n),
            "storm": bool(s),
        }
        for seed in seeds
        for arrival in arrivals
        for n in n_ues
        for s in storm
    ]


def point(params: Dict, quick: bool = True) -> Dict:
    """One event-driven run; returns control-plane and serving KPIs."""
    seed = params["seed"]
    n = params["n_ues"]
    serve_time_s = 120.0 if quick else 300.0
    events = EventConfig(
        arrival_process=params["arrival"],
        arrival_window_s=30.0,
        session_mean_s=0.0,  # no voluntary churn: storms are the churn
        n_preambles=12 if quick else 54,
        rar_window_grants=4,
        acb_threshold=max(4, n // 4),
        barring_factor=0.5,
        barring_time_s=2.0,
        kpi_period_s=10.0,
    )
    faults = None
    if params["storm"]:
        faults = FaultPlan(
            seed=seed,
            storm_rate_per_s=0.02,
            storm_burst_ues=max(2, n // 3),
        )
    # A real flash crowd hits within a few PRACH frames, not seconds:
    # compress the burst so the stress case actually contends.
    arrival_params = {"burst_s": 0.05} if params["arrival"] == "flash_crowd" else None
    scenario = scenario_for("campus", n_ues=n, layout="uniform", seed=seed, quick=quick)
    result = run_simulation(
        scenario,
        scheme="events",
        n_epochs=3,
        seed=seed,
        serve_time_s=serve_time_s,
        events=events,
        arrival_params=arrival_params,
        faults=faults,
    )
    c = result.event_counters
    pop = result.population
    attempts = max(c["rach_attempts"], 1)
    spawned = sum(pop.values())
    last = result.records[-1] if result.records else None
    return {
        "seed": seed,
        "arrival": params["arrival"],
        "n_ues": n,
        "storm": params["storm"],
        "population": pop,
        "counters": c,
        "attach_success": pop["attached"] / max(spawned - pop["detached"], 1),
        "collision_rate": c["rach_collisions"] / attempts,
        "barred_per_ue": c["barred"] / max(spawned, 1),
        "epochs_planned": len(result.records),
        "final_relative_throughput": None if last is None else last.relative_throughput,
        "final_attached": None if last is None else last.attached_ues,
        "conserved": spawned == n,
    }


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    """Average per (arrival, n_ues, storm) across seeds."""
    groups: Dict[tuple, List[Dict]] = {}
    order: List[tuple] = []
    for rec in records:
        key = (rec["arrival"], rec["n_ues"], rec["storm"])
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(rec)
    rows = []
    for key in order:
        rs = groups[key]
        rows.append(
            {
                "arrival": key[0],
                "n_ues": key[1],
                "storm": key[2],
                "attach_success": float(np.mean([r["attach_success"] for r in rs])),
                "collision_rate": float(np.mean([r["collision_rate"] for r in rs])),
                "barred_per_ue": float(np.mean([r["barred_per_ue"] for r in rs])),
                "epochs_planned": float(np.mean([r["epochs_planned"] for r in rs])),
                "all_conserved": all(r["conserved"] for r in rs),
            }
        )
    return {"rows": rows, "paper": PAPER}


EXPERIMENT = register(
    "attach-storm",
    title="Attach storm — RACH resilience under crowd arrivals",
    grid=grid,
    point=point,
    aggregate=aggregate,
)
