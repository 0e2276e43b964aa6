"""The benchmark's workloads: inputs from a seed, a world, one driven run.

Each workload fixes its terrain and program settings; ``--seed`` draws
only the inputs (UE layouts, relocation, arrival and mobility streams,
fault onsets), so two seeds run the same code on the same map with
different users.  A workload names its *op*, the call whose latency
``op_p50_s`` reports, and checks the invariants of every op result.

The program is imported inside the functions: the worker times those
imports as set-up and repeats them in every set-up round.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Program modules imported as set-up; every workload pays the same set.
PROGRAM_MODULES = (
    "repro.sim.runner",
    "repro.core.controller",
    "repro.core.fleet",
    "repro.city.scenario",
    "repro.events.simulate",
    "repro.faults.plan",
    "repro.mobility.models",
)

#: The experiments' quick settings: terrain raster and REM pitch (m).
QUICK_CELL_M = 2.0
QUICK_REM_CELL_M = 4.0

#: Share of UEs relocated before every epoch after the first (Section 5.2).
RELOCATE_FRACTION = 0.3

FLEET_UES = 12
FLEET_UAVS = 3
#: Independent UE layouts per fleet run, each flown for FLEET_EPOCHS
#: epochs.  An epoch's cost depends on its layout (the joint
#: multilateration solve above all), and independent layouts average
#: out faster than more epochs over one layout.
FLEET_INSTANCES = 4
FLEET_EPOCHS = 2
FLEET_BUDGET_M = 250.0

EVENTS_UES = 16
#: Event time served per pass: about 37 KPI ticks of the default
#: 1000-TTI MAC batch.
EVENTS_SERVE_S = 80.0
EVENTS_KPI_PERIOD_S = 2.0
EVENTS_MAX_EPOCHS = 6
EVENTS_BUDGET_M = 250.0

CITY_UES = 100_000
CITY_EPOCHS = 2
CITY_LOC_SAMPLE = 8


def derive_seeds(seed: int, n: int) -> List[int]:
    """``n`` independent 32-bit input seeds from the workload seed."""
    import numpy as np

    return [int(s) for s in np.random.SeedSequence(seed % 2**64).generate_state(n)]


class OpLog:
    """What a run's ops did: latencies, invariant violations, decisions."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.durations: List[float] = []
        self.starts: List[float] = []
        self.failed: set = set()
        self.violations: List[str] = []
        self.decisions: List[list] = []
        self.served_mbps: List[float] = []
        self.current = -1

    def set_op(self, idx: int) -> None:
        self.current = idx
        if self.tracer is not None:
            self.tracer.op = idx

    def violate(self, message: str) -> None:
        if self.current >= 0:
            self.failed.add(self.current)
        self.violations.append(f"op {self.current}: {message}")


@dataclass(frozen=True)
class Probe:
    """A method the worker wraps on its class to check (and time) calls.

    ``check(log, obj, result, before)`` runs after every call, with
    ``before = before_fn(obj)`` taken just before it.  An ``op`` probe
    also times each call as one op.
    """

    target: Tuple[str, str]
    check: Callable
    before_fn: Optional[Callable] = None
    op: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    op: str
    #: Untraced passes over identical inputs; timings keep the fastest.
    #: Only events_pf has room for two: its ticks are short and alike,
    #: while an epoch's cost varies so much with the inputs that the
    #: other workloads spend their budget on more epochs instead.
    passes: int
    #: Layers the traced run must see called at least once.
    layers: Tuple[str, ...]
    probes: Tuple[Probe, ...]
    build: Callable[[int], dict]
    run: Callable[[dict, OpLog], dict]


# -- invariants ------------------------------------------------------------------


def _check_position(log: OpLog, xyz, grid, config, what: str) -> None:
    x, y, z = (float(v) for v in xyz)
    if not all(math.isfinite(v) for v in (x, y, z)):
        log.violate(f"{what} is not finite: {(x, y, z)}")
        return
    if not (grid.origin_x <= x <= grid.max_x and grid.origin_y <= y <= grid.max_y):
        log.violate(f"{what} ({x:.1f}, {y:.1f}) is outside the terrain grid")
    if not config.min_altitude_m <= z <= config.max_altitude_m:
        log.violate(
            f"{what} altitude {z} m is outside "
            f"[{config.min_altitude_m}, {config.max_altitude_m}] m"
        )


def _check_distance(log: OpLog, distance_m: float, what: str) -> None:
    if not (math.isfinite(distance_m) and distance_m >= 0.0):
        log.violate(f"{what} flight distance {distance_m} m")


def _check_epoch(log: OpLog, ctrl, result, _before) -> None:
    """``SkyRANController.run_epoch``: placement, altitude, distance."""
    pos = [float(v) for v in result.placement.position.as_array()]
    _check_position(log, pos, ctrl.channel.terrain.grid, ctrl.config, "placement")
    _check_distance(log, result.flight_distance_m, "epoch")
    log.decisions.append(pos + [float(result.altitude_m), float(result.flight_distance_m)])


def _check_fleet_epoch(log: OpLog, fleet, result, _before) -> None:
    """``FleetController.run_epoch``: every cell's final UAV position."""
    grid = fleet.channel.terrain.grid
    final = [[float(v) for v in pos] for pos in fleet.uav_positions()]
    for cell, pos in enumerate(final):
        _check_position(log, pos, grid, fleet.config, f"cell {cell} UAV")
    _check_distance(log, result.total_flight_distance_m, "fleet epoch")
    log.decisions.append([v for pos in final for v in pos] + [result.total_flight_distance_m])


def _check_tick(log: OpLog, ctrl, fired, _before) -> None:
    """``SkyRANController.needs_new_epoch``: one KPI tick's served rate."""
    served = float(ctrl.last_mac_summary["served_mbps"])
    if not (math.isfinite(served) and served >= 0.0):
        log.violate(f"served rate {served} Mb/s")
    log.served_mbps.append(served)
    log.decisions.append([served, bool(fired)])


def _mac_backlog(mac) -> float:
    return float(mac.queues.backlog_bytes.sum())


def _check_mac(log: OpLog, _mac, batch, backlog_bytes: float) -> None:
    """``MACSimulation.run``: PRB budget per TTI, served <= offered + backlog."""
    per_tti = batch.grants.sum(axis=0)
    if per_tti.size and int(per_tti.max()) > batch.n_prb:
        log.violate(f"{int(per_tti.max())} PRBs granted in one TTI of {batch.n_prb}")
    served = float(batch.served_bytes.sum())
    offered = float(batch.offered_bytes.sum())
    if served > (offered + backlog_bytes) * (1.0 + 1e-9):
        log.violate(
            f"served {served:.0f} B > offered {offered:.0f} B + backlog {backlog_bytes:.0f} B"
        )


def _city_backlog(scenario):
    return scenario.population.backlog_bytes.copy()


def _check_city_epoch(log: OpLog, scenario, out, backlog) -> None:
    """``CityScenario.run_controller_epoch``: placement and the city MAC."""
    from repro.core.config import SkyRANConfig

    pos = [float(v) for v in out["placement"].position.as_array()]
    _check_position(log, pos, scenario.terrain.grid, SkyRANConfig(), "placement")
    _check_distance(log, out["epoch"].flight_distance_m, "epoch")
    mac = out["mac"]
    if int(mac.grants.sum()) > mac.n_prb * mac.n_tti:
        log.violate(f"{int(mac.grants.sum())} PRB grants > {mac.n_prb} PRBs x {mac.n_tti} TTIs")
    cbr = ~scenario.population.full_buffer
    excess = mac.served_bytes[cbr] - mac.offered_bytes[cbr] - backlog[cbr]
    if excess.size and float(excess.max()) > 1e-6:
        log.violate(f"a CBR UE was served {float(excess.max()):.0f} B beyond its offer + backlog")
    log.decisions.append(
        pos
        + [
            float(out["altitude_m"]),
            float(out["epoch"].flight_distance_m),
            float(out["aggregate_served_mbps"]),
        ]
    )


# -- fleet_campus ----------------------------------------------------------------


def _campus_instances(seed: int, n: int, n_ues: int, cell_size: float) -> List[dict]:
    """``n`` campus UE layouts, each with its own controller seed."""
    from repro.sim.scenario import Scenario

    seeds = derive_seeds(seed, 2 * n)
    return [
        {
            "scenario": Scenario.create("campus", n_ues=n_ues, cell_size=cell_size, seed=ue_seed),
            "run_seed": run_seed,
        }
        for ue_seed, run_seed in zip(seeds[0::2], seeds[1::2])
    ]


def _build_fleet(seed: int) -> dict:
    from repro.core.config import SkyRANConfig

    return {
        "instances": _campus_instances(seed, FLEET_INSTANCES, FLEET_UES, QUICK_CELL_M),
        "config": SkyRANConfig(rem_cell_size_m=QUICK_REM_CELL_M),
    }


def _run_fleet(world: dict, log: OpLog) -> dict:
    from repro.sim.runner import run_simulation

    flight_m, records = 0.0, []
    for instance in world["instances"]:
        result = run_simulation(
            instance["scenario"],
            world["config"],
            scheme="fleet",
            n_uavs=FLEET_UAVS,
            reuse_factor=1,
            n_epochs=FLEET_EPOCHS,
            budget_per_epoch_m=FLEET_BUDGET_M,
            move_fraction=RELOCATE_FRACTION,
            seed=instance["run_seed"],
        )
        flight_m += float(result.fleet_records[-1].cumulative_distance_m)
        records += result.fleet_records
    return {
        "flight_m": flight_m,
        "tput_mbps": statistics.fmean(r.aggregate_throughput_mbps for r in records),
        "min_tput_mbps": statistics.fmean(r.min_throughput_mbps for r in records),
    }


# -- events_pf -------------------------------------------------------------------


def _build_events(seed: int) -> dict:
    from repro.core.config import SkyRANConfig
    from repro.events.simulate import EventConfig
    from repro.faults.plan import FaultPlan
    from repro.mobility.models import RandomWaypoint
    from repro.sim.scenario import Scenario

    ue_seed, run_seed, fault_seed = derive_seeds(seed, 3)
    scenario = Scenario.create("campus", n_ues=EVENTS_UES, cell_size=QUICK_CELL_M, seed=ue_seed)
    config = SkyRANConfig(
        rem_cell_size_m=QUICK_REM_CELL_M,
        traffic_model="poisson",
        scheduler="proportional_fair",
        epoch_trigger_metric="served",
    )
    return {
        "scenario": scenario,
        "config": config,
        "events": EventConfig(arrival_process="stadium", kpi_period_s=EVENTS_KPI_PERIOD_S),
        "faults": FaultPlan(seed=fault_seed, storm_rate_per_s=0.02, storm_burst_ues=4),
        "mobility": RandomWaypoint(grid=scenario.grid),
        "run_seed": run_seed,
    }


def _run_events(world: dict, log: OpLog) -> dict:
    from repro.sim.runner import run_simulation

    scenario = world["scenario"]
    result = run_simulation(
        scenario,
        world["config"],
        world["faults"],
        scheme="events",
        n_epochs=EVENTS_MAX_EPOCHS,
        budget_per_epoch_m=EVENTS_BUDGET_M,
        seed=world["run_seed"],
        events=world["events"],
        serve_time_s=EVENTS_SERVE_S,
        mobility=world["mobility"],
    )
    census = sum(result.population.values())
    if census != len(scenario.ues):
        log.violate(f"census {result.population} sums to {census}, spawned {len(scenario.ues)}")
    records = result.records
    return {
        "flight_m": float(records[-1].cumulative_distance_m),
        "tput_mbps": statistics.fmean(log.served_mbps),
        "min_tput_mbps": statistics.fmean(r.min_throughput_mbps for r in records),
        "served_mbps": statistics.fmean(log.served_mbps),
    }


# -- city_100k -------------------------------------------------------------------


def _build_city(seed: int) -> dict:
    from repro.city.population import UEPopulation
    from repro.city.scenario import CityScenario

    (pop_seed,) = derive_seeds(seed, 1)
    base = CityScenario.create(n_ues=CITY_UES)
    population = UEPopulation.sample(base.terrain, CITY_UES, seed=pop_seed)
    scenario = dataclasses.replace(base, population=population)
    # Build the epoch controller now, so set-up (not the first op) pays
    # for it; run_controller_epoch reuses the cached one.
    scenario._controller_for(per_ue=False, loc_sample=CITY_LOC_SAMPLE, seed=0)
    return {"scenario": scenario}


def _run_city(world: dict, log: OpLog) -> dict:
    scenario = world["scenario"]
    outs = [
        scenario.run_controller_epoch(loc_sample=CITY_LOC_SAMPLE)
        for _ in range(CITY_EPOCHS)
    ]
    return {
        "flight_m": float(sum(o["epoch"].flight_distance_m for o in outs)),
        "tput_mbps": statistics.fmean(o["aggregate_served_mbps"] for o in outs),
        "served_mbps": statistics.fmean(o["aggregate_served_mbps"] for o in outs),
    }


_LOCALIZATION = ("localization", "lte.srs", "lte.tof", "localization.joint")
_EPOCH_LAYERS = _LOCALIZATION + (
    "rem.interpolate",
    "core.placement",
    "core.rem_store",
    "trajectory",
    "trajectory.information",
    "flight",
    "channel",
)
_EPOCH_CHECK = Probe(("repro.core.controller", "SkyRANController.run_epoch"), _check_epoch)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="city_100k",
            op="CityScenario.run_controller_epoch",
            passes=1,
            layers=_EPOCH_LAYERS + ("rem.streaming", "city"),
            probes=(
                Probe(
                    ("repro.city.scenario", "CityScenario.run_controller_epoch"),
                    _check_city_epoch,
                    _city_backlog,
                    op=True,
                ),
                _EPOCH_CHECK,
            ),
            build=_build_city,
            run=_run_city,
        ),
        Workload(
            name="fleet_campus",
            op="FleetController.run_epoch",
            passes=1,
            layers=_EPOCH_LAYERS + ("core.fleet",),
            probes=(
                Probe(
                    ("repro.core.fleet", "FleetController.run_epoch"),
                    _check_fleet_epoch,
                    op=True,
                ),
                _EPOCH_CHECK,
            ),
            build=_build_fleet,
            run=_run_fleet,
        ),
        Workload(
            name="events_pf",
            op="SkyRANController.needs_new_epoch (one KPI tick)",
            passes=2,
            layers=_EPOCH_LAYERS + ("sim.scenario", "traffic", "events"),
            probes=(
                Probe(
                    ("repro.core.controller", "SkyRANController.needs_new_epoch"),
                    _check_tick,
                    op=True,
                ),
                _EPOCH_CHECK,
                Probe(("repro.traffic.simulate", "MACSimulation.run"), _check_mac, _mac_backlog),
            ),
            build=_build_events,
            run=_run_events,
        ),
    )
}
