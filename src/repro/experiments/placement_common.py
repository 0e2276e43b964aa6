"""Shared machinery for the placement, budget and overhead figures.

Every run of Figs. 20-31 and the headline goes through
:func:`run_scheme`, a thin call into
:func:`repro.sim.runner.run_simulation`: one-epoch figures (20-24,
headline) score the final record via :func:`scheme_point`; the
overhead figures (26-28) read the cumulative flight of up to
:data:`OVERHEAD_MAX_EPOCHS` epochs via :func:`overhead_point`; Figs.
29-31 average the epochs after the first (their shared point lives in
:mod:`repro.experiments.fig29_budget_terrains`).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.experiments.common import UAV_SPEED_MPS, config_for, scenario_for
from repro.sim.runner import RunResult, overhead_to_target, run_simulation

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
    n_epochs: int = 1,
    move_fraction: float = 0.0,
) -> RunResult:
    """Run a scheme on a scenario for ``n_epochs`` epochs of ``budget_m``.

    Every scheme is pinned to :data:`TESTBED_ALTITUDE_M`.  Before every
    epoch after the first, ``move_fraction`` of the UEs relocate.
    """
    return run_simulation(
        scenario,
        config_for(quick),
        scheme=scheme,
        n_epochs=n_epochs,
        budget_per_epoch_m=budget_m,
        move_fraction=move_fraction,
        seed=seed,
        altitude=TESTBED_ALTITUDE_M,
    )


def scheme_point(
    terrain: str,
    n_ues: int,
    layout: str,
    scheme: str,
    budget_m: float,
    seed: int,
    quick: bool = True,
) -> Dict:
    """One (scheme, seed) grid point: fresh scenario, one epoch, its scores.

    The unit of work the experiment registry caches and parallelizes
    for the one-epoch placement/budget figures.
    """
    scenario = scenario_for(terrain, n_ues, layout, seed, quick)
    rec = run_scheme(scenario, scheme, budget_m, seed=seed, quick=quick).final
    return {
        "scheme": scheme,
        "budget_m": budget_m,
        "relative_throughput": rec.relative_throughput,
        "rem_error_db": rec.rem_error_db,
        "flight_time_s": rec.flight_time_s,
        "altitude_m": rec.altitude_m,
        "seed": seed,
    }


def mean_of_records(records) -> Dict:
    """Fold per-seed scheme records into the mean the figures report."""
    errs = [float(r["rem_error_db"]) for r in records]
    return {
        "relative_throughput": float(np.mean([r["relative_throughput"] for r in records])),
        "rem_error_db": float(np.nanmean(errs)) if not all(np.isnan(errs)) else float("nan"),
        "flight_time_s": float(np.mean([r["flight_time_s"] for r in records])),
    }


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
    records = run_scheme(
        scenario_for(terrain, 6, "uniform", seed, quick),
        scheme,
        budget_per_epoch_m,
        seed=seed,
        quick=quick,
        n_epochs=OVERHEAD_MAX_EPOCHS,
        move_fraction=move_fraction,
    ).records
    distance = overhead_to_target(records, **target)
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
