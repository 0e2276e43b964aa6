"""Shared machinery for the placement/budget figures (20-24, 26-31)."""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.experiments.common import (
    UAV_SPEED_MPS,
    config_for,
    scenario_for,
    skyran_for,
    uniform_for,
)
from repro.sim.runner import overhead_to_target, run_epochs, run_simulation

#: Fixed operating altitude for the testbed-style comparisons, so all
#: schemes are scored on the same horizontal placement problem (the
#: paper "presents results for UAV positioning at a given altitude").
TESTBED_ALTITUDE_M = 60.0

#: Epoch cap of the overhead figures (26-28).  A run that has not met
#: its target by then is censored.
OVERHEAD_MAX_EPOCHS = 8


def run_scheme(
    scenario,
    scheme: str,
    budget_m: float,
    seed: int = 0,
    quick: bool = True,
    altitude: Optional[float] = TESTBED_ALTITUDE_M,
    faults=None,
) -> Dict:
    """One epoch of a scheme at a budget; relative throughput + REM error.

    ``altitude=None`` lets SkyRAN run its own altitude search; a float
    pins every scheme to that altitude.  All construction and
    evaluation goes through :func:`repro.sim.runner.run_simulation`,
    which is also where ``faults`` (an optional
    :class:`~repro.faults.plan.FaultPlan`) is wired in.
    """
    out = run_simulation(
        scenario,
        config_for(quick),
        faults,
        scheme=scheme,
        n_epochs=1,
        budget_per_epoch_m=budget_m,
        seed=seed,
        altitude=altitude,
    )
    rec = out.final
    return {
        "scheme": scheme,
        "budget_m": budget_m,
        "relative_throughput": rec.relative_throughput,
        "rem_error_db": rec.rem_error_db,
        "flight_time_s": rec.flight_time_s,
        "altitude_m": rec.altitude_m,
    }


def fresh_scenario(terrain: str, n_ues: int, layout: str, seed: int, quick: bool):
    """A new scenario instance (controllers keep per-run state)."""
    return scenario_for(terrain, n_ues=n_ues, layout=layout, seed=seed, quick=quick)


def scheme_point(
    terrain: str,
    n_ues: int,
    layout: str,
    scheme: str,
    budget_m: float,
    seed: int,
    quick: bool = True,
    altitude: Optional[float] = TESTBED_ALTITUDE_M,
    faults=None,
) -> Dict:
    """One (scheme, seed) grid point: fresh scenario + one epoch.

    The unit of work the experiment registry caches and parallelizes
    for every placement/budget figure.
    """
    scenario = fresh_scenario(terrain, n_ues, layout, seed, quick)
    out = run_scheme(
        scenario, scheme, budget_m, seed=seed, quick=quick, altitude=altitude, faults=faults
    )
    out["seed"] = seed
    return out


def mean_of_records(records) -> Dict:
    """Fold per-seed scheme records into the mean the figures report."""
    errs = [float(r["rem_error_db"]) for r in records]
    return {
        "relative_throughput": float(np.mean([r["relative_throughput"] for r in records])),
        "rem_error_db": float(np.nanmean(errs)) if not all(np.isnan(errs)) else float("nan"),
        "flight_time_s": float(np.mean([r["flight_time_s"] for r in records])),
    }


def mean_over_seeds(
    terrain: str,
    n_ues: int,
    layout: str,
    scheme: str,
    budget_m: float,
    seeds,
    quick: bool = True,
    altitude: Optional[float] = TESTBED_ALTITUDE_M,
) -> Dict:
    """Average scheme performance over several scenario/controller seeds."""
    records = [
        scheme_point(terrain, n_ues, layout, scheme, budget_m, seed, quick, altitude)
        for seed in seeds
    ]
    out = mean_of_records(records)
    out["scheme"] = scheme
    out["budget_m"] = budget_m
    return out


def overhead_point(
    terrain: str,
    scheme: str,
    budget_per_epoch_m: float,
    move_fraction: float,
    seed: int,
    quick: bool,
    **target,
) -> Dict:
    """Measurement-flight time until a target is first met (Figs. 26-28).

    Six UEs, the scheme pinned to the testbed altitude, up to
    :data:`OVERHEAD_MAX_EPOCHS` epochs; ``target`` goes to
    :func:`~repro.sim.runner.overhead_to_target`.  Time is distance at
    cruise speed, the paper's overhead axis, so SkyRAN's deliberately
    slow localization hops don't distort it.  A run that never meets
    the target is censored: ``reached`` is False and ``time_s`` is the
    whole run's flight, only a lower bound on the true overhead.
    """
    scenario = fresh_scenario(terrain, 6, "uniform", seed, quick)
    if scheme == "skyran":
        ctrl = skyran_for(scenario, seed=seed, quick=quick)
        ctrl.altitude = TESTBED_ALTITUDE_M
    else:
        ctrl = uniform_for(scenario, altitude=TESTBED_ALTITUDE_M, seed=seed, quick=quick)
    records = run_epochs(
        scenario,
        ctrl,
        OVERHEAD_MAX_EPOCHS,
        budget_per_epoch_m=budget_per_epoch_m,
        move_fraction=move_fraction,
        seed=seed,
    )
    distance = overhead_to_target(records, value="distance", **target)
    reached = distance is not None
    if not reached:
        distance = records[-1].cumulative_distance_m
    return {"scheme": scheme, "time_s": float(distance / UAV_SPEED_MPS), "reached": reached}


def reached_count(records: List[Dict]) -> str:
    """``"hits/n"``: how many overhead runs met their target."""
    return f"{sum(bool(r['reached']) for r in records)}/{len(records)}"


def uncensored(*rows: Dict) -> bool:
    """True when every run behind these overhead rows met its target."""
    for row in rows:
        for key in ("skyran_reached", "uniform_reached"):
            hits, n = row[key].split("/")
            if hits != n:
                return False
    return True
