#!/usr/bin/env python
"""Record hashes: one sha256 per runner case, for bit-identity checks.

A change that claims "no record moved" runs this at the parent commit
and at the change and diffs the two outputs.  Each case prints one
line: its name, the sha256 over ``asdict(result)`` (every
:class:`~repro.sim.runner.EpochRecord` plus the fault, fallback and
event counters and the population census) and the flown distance.

Cases:

* ``skyran`` / ``uniform`` / ``centroid``: three campus epochs with
  UE relocation between them;
* ``fleet``: three co-channel UAVs (association, handover and joint
  refinement run from the second epoch);
* ``events``: the event clock with Poisson traffic, proportional-fair
  scheduling on the served-rate trigger, attach storms and mobility;
* ``chaos``: SkyRAN under the chaos smoke's fault plan;
* ``city``: one :meth:`~repro.city.scenario.CityScenario.run_controller_epoch`
  over 3,000 UEs (its epoch result, serving SNRs and MAC totals).

Floats are hashed through ``json`` (shortest round-trip repr), arrays
through their raw bytes, so any bit that moves moves the hash.

Usage (about 10 s; run it in a checkout of each commit and diff)::

    PYTHONPATH=src python scripts/record_hashes.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from chaos_smoke import CHAOS_PLAN  # noqa: E402
from repro.city import CityScenario  # noqa: E402
from repro.core.config import SkyRANConfig  # noqa: E402
from repro.events import EventConfig  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.mobility.models import RandomWaypoint  # noqa: E402
from repro.sim.runner import run_simulation  # noqa: E402
from repro.sim.scenario import Scenario  # noqa: E402


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        a = np.ascontiguousarray(obj)
        return [str(a.dtype), list(a.shape), hashlib.sha256(a.tobytes()).hexdigest()]
    if isinstance(obj, np.generic):
        return obj.item()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"cannot hash {type(obj).__name__}")


def digest(payload) -> str:
    """sha256 of a canonical JSON rendering of ``payload``."""
    text = json.dumps(payload, sort_keys=True, default=_json_default)
    return hashlib.sha256(text.encode()).hexdigest()


def _campus(n_ues: int, seed: int = 1) -> Scenario:
    return Scenario.create("campus", n_ues=n_ues, cell_size=4.0, seed=seed)


def _epochs(scheme: str, **kwargs):
    n_ues = 9 if scheme == "fleet" else 6
    return run_simulation(
        _campus(n_ues),
        SkyRANConfig(rem_cell_size_m=8.0),
        scheme=scheme,
        n_epochs=3,
        budget_per_epoch_m=250.0,
        move_fraction=0.3,
        seed=1,
        **kwargs,
    )


def _events():
    scenario = _campus(12, seed=2)
    config = SkyRANConfig(
        rem_cell_size_m=8.0,
        traffic_model="poisson",
        scheduler="proportional_fair",
        epoch_trigger_metric="served",
    )
    return run_simulation(
        scenario,
        config,
        FaultPlan(seed=3, storm_rate_per_s=0.1, storm_burst_ues=4),
        scheme="events",
        n_epochs=4,
        budget_per_epoch_m=250.0,
        seed=2,
        events=EventConfig(arrival_process="stadium", kpi_period_s=2.0),
        serve_time_s=60.0,
        mobility=RandomWaypoint(grid=scenario.grid),
    )


def _chaos():
    return run_simulation(
        Scenario.create("campus", n_ues=3, cell_size=8.0, seed=3),
        SkyRANConfig(rem_cell_size_m=16.0, measurement_budget_m=250.0),
        FaultPlan(seed=7, **CHAOS_PLAN),
        n_epochs=2,
        budget_per_epoch_m=250.0,
        seed=7,
        altitude=60.0,
    )


def _run_case(name: str):
    """``(payload, flight_m)`` of one case."""
    if name == "city":
        out = CityScenario.create(n_ues=3000, seed=0).run_controller_epoch()
        epoch = out["epoch"]
        payload = {
            "epoch": epoch,
            "min_snr_db": out["min_snr_db"],
            "mean_snr_db": out["mean_snr_db"],
            "mac": out["mac"],
        }
        return payload, epoch.flight_distance_m
    if name == "events":
        result = _events()
    elif name == "chaos":
        result = _chaos()
    elif name == "fleet":
        result = _epochs("fleet", n_uavs=3)
    else:
        result = _epochs(name)
    return dataclasses.asdict(result), result.final.cumulative_distance_m


CASES = ("skyran", "uniform", "centroid", "fleet", "events", "chaos", "city")


def main() -> int:
    for name in CASES:
        payload, flight_m = _run_case(name)
        print(f"{name:<9s}{digest(payload)}  flight_m={flight_m:.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
