"""Multi-epoch experiment runner.

Drives a SkyRAN, Uniform, Centroid or fleet controller through
successive epochs with UE dynamics between them, accounting flight
distance/time and the scored KPIs per epoch — the engine behind the
Section 5 scale-up figures (26-31).  Two clocks drive epochs — the
fixed epoch count of :func:`run_epochs` and the event layer's trigger
in :func:`_run_event_epochs` — and both record every epoch through
:func:`_run_recorded_epoch` as one :class:`EpochRecord` type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.fleet import FleetController, FleetEpochResult
from repro.mobility.models import relocate_fraction
from repro.perf import perf
from repro.sim.metrics import median_rem_error
from repro.sim.scenario import Scenario

#: Fixed operating altitude for schemes without an altitude search
#: (and for pinned like-for-like comparisons).
DEFAULT_FIXED_ALTITUDE_M = 60.0


@dataclass(frozen=True)
class EpochRecord:
    """Per-epoch outcome of a runner pass.

    Every scheme writes this one record.  Single-cell schemes are scored
    by the scenario's ground-truth oracle and leave the fleet columns
    None; ``scheme="fleet"`` is scored from its own SINR KPIs, fills
    the fleet columns and leaves the single-cell oracle columns
    (``relative_throughput``, ``rem_error_db``, ``altitude_m``) and the
    MAC columns None.

    Attributes
    ----------
    epoch:
        Epoch index.
    flight_distance_m / flight_time_s:
        Overhead spent this epoch (summed over every cell for fleets).
    cumulative_distance_m / cumulative_time_s:
        Overhead spent so far, across epochs.
    relative_throughput:
        True mean-UE throughput at the chosen position over the true
        mean-UE throughput at the max-min-SNR argmax of the
        ground-truth maps at the same altitude
        (:meth:`~repro.sim.scenario.Scenario.relative_throughput`).
        The reference maximizes the worst UE's SNR, not the mean
        throughput, so the ratio can exceed 1 (up to 107.48 on the
        Fig. 29 NYC points).  None for fleets: a fleet has no
        single-cell reference.
    rem_error_db:
        Median REM error vs ground truth (NaN for schemes without
        REMs, None for fleets).
    moved_ues:
        UE ids relocated before this epoch.
    altitude_m:
        Operating altitude served at after this epoch (None for
        fleets).
    min_throughput_mbps:
        True worst-UE throughput at the served position — the KPI the
        chaos smoke watches for graceful degradation.  For fleets, the
        worst per-UE full-cell throughput from the true-SINR evaluation
        of the final deployment.
    offered_mbps / served_mbps:
        Aggregate offered and served rates from the epoch's traffic
        MAC batch (None for legacy full-buffer/capacity configs — the
        controller builds no MAC simulation then).
    backlog_bytes:
        End-of-batch aggregate RLC backlog (inf under full-buffer
        workloads; None as above).
    attached_ues:
        UEs attached when this epoch was planned (None outside
        ``scheme="events"`` — the epoch loop then serves a fixed
        population).
    attaches:
        Attaches this epoch: RACH attaches since the previous epoch
        under ``scheme="events"``, first-time cell attaches under
        ``scheme="fleet"``; None otherwise.
    detaches / rach_collisions / barred:
        Event-layer control-plane counters accumulated since the
        previous epoch (None outside ``scheme="events"``).
    rem_groups:
        REM-key dedup groups the controller's epoch used (the number of
        UEs it served when dedup is off); None for controllers without
        REM-key dedup.
    n_uavs / reuse_factor:
        Fleet size and frequency plan (None outside ``scheme="fleet"``,
        as are all the fleet columns below).
    aggregate_throughput_mbps:
        Mean per-UE full-cell throughput from the fleet's true-SINR
        evaluation.
    cells:
        Cell indices that served UEs this epoch, ascending; the
        ``per_cell_*`` and ``ue_counts`` tuples align with it.
    per_cell_aggregate_mbps / per_cell_min_mbps:
        Mean / worst per-UE throughput inside each cell.
    ue_counts:
        UEs served per cell.
    handovers:
        Sky-cell handovers this epoch.
    """

    epoch: int
    flight_distance_m: float
    flight_time_s: float
    cumulative_distance_m: float
    cumulative_time_s: float
    relative_throughput: Optional[float]
    rem_error_db: Optional[float]
    moved_ues: tuple
    altitude_m: Optional[float] = None
    min_throughput_mbps: Optional[float] = None
    offered_mbps: Optional[float] = None
    served_mbps: Optional[float] = None
    backlog_bytes: Optional[float] = None
    attached_ues: Optional[int] = None
    attaches: Optional[int] = None
    detaches: Optional[int] = None
    rach_collisions: Optional[int] = None
    barred: Optional[int] = None
    rem_groups: Optional[int] = None
    n_uavs: Optional[int] = None
    reuse_factor: Optional[int] = None
    aggregate_throughput_mbps: Optional[float] = None
    cells: Optional[tuple] = None
    per_cell_aggregate_mbps: Optional[tuple] = None
    per_cell_min_mbps: Optional[tuple] = None
    ue_counts: Optional[tuple] = None
    handovers: Optional[int] = None


def _relocate_ues(scenario: Scenario, move_fraction: float, rng) -> tuple:
    """Teleport ``move_fraction`` of the UEs to fresh walkable positions.

    The Section 5.2 dynamics model: walkable means terrain below 2 m,
    and moved UEs keep their antenna 1.5 m above the local ground.
    Returns the moved UE ids.
    """
    terrain = scenario.terrain

    def walkable(x: float, y: float) -> bool:
        return terrain.height_at(x, y) < 2.0

    moved_ids = relocate_fraction(
        scenario.ues, move_fraction, scenario.grid, rng, walkable
    )
    for ue in scenario.ues:
        if ue.ue_id in moved_ids:
            ue.move_to(
                ue.position.x,
                ue.position.y,
                terrain.height_at(ue.position.x, ue.position.y) + 1.5,
            )
    return tuple(moved_ids)


def _score_epoch(scenario: Scenario, controller, result) -> Dict:
    """The :class:`EpochRecord` columns one epoch's result scores to.

    The runner's only fleet-vs-single-cell branch.  A fleet epoch is
    scored from its own true-SINR KPIs — a fleet has no single-cell
    optimum, so the scenario oracle is never consulted.  Every other
    result is scored by the scenario's ground-truth oracle at the
    served position, plus the controller's MAC summary.
    """
    if isinstance(result, FleetEpochResult):
        per_cell_agg = result.per_cell_aggregate_throughput_mbps
        per_cell_min = result.per_cell_min_throughput_mbps
        counts = result.ue_counts
        cells = tuple(sorted(per_cell_agg))
        return dict(
            flight_distance_m=result.total_flight_distance_m,
            flight_time_s=result.total_flight_time_s,
            relative_throughput=None,
            rem_error_db=None,
            min_throughput_mbps=result.min_throughput_mbps,
            attaches=result.attaches,
            n_uavs=controller.n_uavs,
            reuse_factor=result.reuse_factor,
            aggregate_throughput_mbps=result.aggregate_throughput_mbps,
            cells=cells,
            per_cell_aggregate_mbps=tuple(per_cell_agg[c] for c in cells),
            per_cell_min_mbps=tuple(per_cell_min[c] for c in cells),
            ue_counts=tuple(counts[c] for c in cells),
            handovers=result.handovers,
        )
    placement = getattr(result, "placement", None)
    # Centroid-style results carry the position directly.
    pos = placement.position if placement is not None else result.position
    rel = scenario.relative_throughput(pos)
    min_tput = scenario.evaluate(pos).min_throughput_mbps
    rem_maps = getattr(result, "rem_maps", None)
    if rem_maps:
        rem_grid = getattr(controller, "rem_grid", scenario.eval_grid)
        truth = scenario.truth_maps(float(pos.z), rem_grid)
        order = sorted(rem_maps)
        # Rows of truth follow scenario.ues order (by construction ids
        # are 1..n sorted), matching sorted map keys.  Under the events
        # scheme only the attached subset has maps, so pick its rows.
        all_ids = sorted(ue.ue_id for ue in scenario.ues)
        if len(order) != len(all_ids):
            truth = truth[[all_ids.index(k) for k in order]]
        err = median_rem_error(rem_maps, truth, ue_order=order)
    else:
        err = float("nan")
    mac = getattr(controller, "last_mac_summary", None) or {}
    return dict(
        flight_distance_m=result.flight_distance_m,
        flight_time_s=result.flight_time_s,
        relative_throughput=rel,
        rem_error_db=err,
        altitude_m=float(pos.z),
        min_throughput_mbps=min_tput,
        offered_mbps=mac.get("offered_mbps"),
        served_mbps=mac.get("served_mbps"),
        backlog_bytes=mac.get("backlog_bytes"),
        rem_groups=getattr(result, "n_rem_groups", None),
    )


def _run_recorded_epoch(
    scenario: Scenario,
    controller,
    budget_m: Optional[float],
    records: List[EpochRecord],
    moved_ues: tuple = (),
    **event_fields,
) -> None:
    """Run one controller epoch and append its :class:`EpochRecord`.

    The record's index and cumulative overhead continue ``records``;
    :func:`_score_epoch` fills the scored columns and ``event_fields``
    the event layer's.
    """
    with perf.span("runner.epoch"):
        if budget_m is not None:
            result = controller.run_epoch(budget_m)
        else:
            result = controller.run_epoch()
    with perf.span("runner.evaluate"):
        scored = _score_epoch(scenario, controller, result)
    previous = records[-1] if records else None
    cum_d = previous.cumulative_distance_m if previous is not None else 0.0
    cum_t = previous.cumulative_time_s if previous is not None else 0.0
    records.append(
        EpochRecord(
            epoch=len(records),
            cumulative_distance_m=cum_d + scored["flight_distance_m"],
            cumulative_time_s=cum_t + scored["flight_time_s"],
            moved_ues=moved_ues,
            **scored,
            **event_fields,
        )
    )


def run_epochs(
    scenario: Scenario,
    controller,
    n_epochs: int,
    budget_per_epoch_m: Optional[float] = None,
    move_fraction: float = 0.0,
    seed: int = 0,
) -> List[EpochRecord]:
    """Run a controller for several epochs with optional UE dynamics.

    Before every epoch after the first, ``move_fraction`` of the UEs
    teleport to fresh walkable positions (the Section 5.2 dynamics
    model).  Works with any controller exposing ``run_epoch(budget)``:
    SkyRAN, the Uniform/Centroid baselines and the fleet, whose budget
    is per UAV.
    """
    rng = np.random.default_rng(seed)
    records: List[EpochRecord] = []
    for epoch in range(n_epochs):
        moved: tuple = ()
        if epoch > 0 and move_fraction > 0:
            moved = _relocate_ues(scenario, move_fraction, rng)
        _run_recorded_epoch(scenario, controller, budget_per_epoch_m, records, moved)
    return records


def _run_event_epochs(
    scenario: Scenario,
    controller,
    events_config,
    serve_time_s: float,
    n_epochs: int,
    budget_per_epoch_m: Optional[float] = None,
    arrival_params: Optional[Dict] = None,
    seed: int = 0,
    faults=None,
):
    """Drive a controller from the event-driven attach/churn layer.

    The inversion of :func:`run_epochs`: instead of a fixed population
    and a fixed epoch count, the :class:`~repro.events.simulate.
    AttachSimulation` owns time.  UEs arrive, fight through the RACH
    and attach; every registration change rebuilds the controller's
    serving-time MAC state; every KPI heartbeat feeds the epoch
    trigger, and a re-plan runs the moment the first UE attaches and
    again whenever the trigger fires — up to ``n_epochs`` re-plans in
    ``serve_time_s`` simulated seconds.

    Returns ``(records, sim)`` so callers can inspect the final
    population census and counters.
    """
    from repro.events.simulate import AttachSimulation

    # The event layer owns attachment for the run: UEs start detached
    # and must earn their registration through the RACH.
    scenario.enodeb.deregister_all()

    records: List[EpochRecord] = []
    counter_mark: Dict[str, int] = {}

    def run_one_epoch() -> None:
        # The controller never touches the event layer, so the counter
        # deltas and the attached census are the same before and after
        # its epoch.
        delta = {
            k: sim.counters[k] - counter_mark.get(k, 0) for k in sim.counters
        }
        counter_mark.update(sim.counters)
        _run_recorded_epoch(
            scenario,
            controller,
            budget_per_epoch_m,
            records,
            attached_ues=len(scenario.enodeb.connected_ues()),
            attaches=delta["attaches"],
            detaches=delta["detaches"],
            rach_collisions=delta["rach_collisions"],
            barred=delta["barred"],
        )

    def on_population_change(t_s: float) -> None:
        del t_s
        controller.refresh_population()

    def on_kpi(t_s: float) -> None:
        if len(records) >= n_epochs:
            return
        if not scenario.enodeb.connected_ues():
            return
        if controller.epoch_index == 0:
            # First UEs are in: plan the initial deployment.
            run_one_epoch()
            return
        if controller.needs_new_epoch(t_s):
            perf.count("events.trigger_replan")
            run_one_epoch()

    sim = AttachSimulation(
        scenario.enodeb,
        list(scenario.ues),
        events_config,
        seed=seed,
        arrival_params=arrival_params,
        faults=faults,
        on_population_change=on_population_change,
        on_kpi=on_kpi,
    )
    sim.run(serve_time_s)
    return records, sim


def overhead_to_target(
    records: List[EpochRecord],
    target_relative: float = 0.9,
    metric: str = "throughput",
    target_rem_db: float = 5.0,
) -> Optional[float]:
    """Cumulative meters flown when a target was first met.

    ``metric="throughput"``: first epoch with relative throughput >=
    ``target_relative``.  ``metric="rem"``: first epoch with REM error
    <= ``target_rem_db``.  None if never met.  The paper's overhead
    axes are measurement-flight time at cruise speed, which distance
    over cruise speed matches more faithfully than the wall clock
    (that includes the slow localization flights).
    """
    for rec in records:
        hit = (
            metric == "throughput" and rec.relative_throughput >= target_relative
        ) or (metric == "rem" and rec.rem_error_db <= target_rem_db)
        if hit:
            return rec.cumulative_distance_m
    return None


# -- the one-call entrypoint ------------------------------------------------------


@dataclass(frozen=True)
class RunResult:
    """Typed outcome of :func:`run_simulation`.

    Attributes
    ----------
    scheme:
        Which controller ran (``"skyran"``/``"uniform"``/
        ``"centroid"``/``"fleet"``/``"events"``).
    records:
        One :class:`EpochRecord` per epoch, in order, whatever the
        scheme.  Single-cell schemes fill the oracle-scored columns,
        ``scheme="events"`` the event-layer columns too, and
        ``scheme="fleet"`` the fleet columns (see :class:`EpochRecord`).
    fault_counters / fallback_counters:
        ``faults.*`` / ``fallback.*`` perf-counter deltas accumulated
        over this run (empty for fault-free runs).
    event_counters:
        The attach/churn layer's control-plane counters (arrivals,
        attaches, collisions, barring, storms) for ``scheme="events"``
        runs; empty otherwise.
    population:
        End-of-run lifecycle census (state name -> UE count, summing
        to the spawned population) for ``scheme="events"`` runs; empty
        otherwise.
    """

    scheme: str
    records: Tuple[EpochRecord, ...]
    fault_counters: Dict[str, int] = field(default_factory=dict)
    fallback_counters: Dict[str, int] = field(default_factory=dict)
    event_counters: Dict[str, int] = field(default_factory=dict)
    population: Dict[str, int] = field(default_factory=dict)

    @property
    def final(self) -> EpochRecord:
        """The last epoch's record."""
        return self.records[-1]

    @property
    def relative_throughput(self) -> float:
        """Relative throughput achieved after the final epoch."""
        return self.final.relative_throughput

    @property
    def total_faults(self) -> int:
        return sum(self.fault_counters.values())

    @property
    def total_fallbacks(self) -> int:
        return sum(self.fallback_counters.values())

    @property
    def fleet_records(self) -> Tuple[EpochRecord, ...]:
        """``records`` for ``scheme="fleet"`` runs; empty otherwise."""
        return self.records if self.scheme == "fleet" else ()

    @property
    def total_handovers(self) -> int:
        """Sky-cell handovers across the whole run (0 for non-fleet)."""
        return sum(r.handovers for r in self.fleet_records)


def _counter_deltas(before: Dict[str, int]) -> Dict[str, Dict[str, int]]:
    """:class:`RunResult`'s per-family perf-counter deltas since ``before``."""
    deltas = perf.counters_since(before)
    return {
        name: {k: v for k, v in deltas.items() if k.startswith(prefix)}
        for name, prefix in (
            ("fault_counters", "faults."),
            ("fallback_counters", "fallback."),
        )
    }


def run_simulation(
    scenario: Scenario,
    config=None,
    faults=None,
    *,
    scheme: str = "skyran",
    n_epochs: int = 1,
    budget_per_epoch_m: Optional[float] = None,
    move_fraction: float = 0.0,
    seed: int = 0,
    altitude: Optional[float] = None,
    n_uavs: int = 1,
    reuse_factor: int = 1,
    events=None,
    arrival_params: Optional[Dict] = None,
    serve_time_s: float = 120.0,
    mobility=None,
) -> RunResult:
    """Build a controller, run it for ``n_epochs``, return a :class:`RunResult`.

    The one public entrypoint experiments and smoke scripts share: it
    owns controller construction (so every caller wires faults and
    config the same way) and snapshots the ``faults.*``/``fallback.*``
    perf counters around the run.

    Parameters
    ----------
    scenario:
        The radio world to run against.
    config:
        :class:`~repro.core.config.SkyRANConfig` (defaults to paper
        defaults).
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` (or prepared
        :class:`~repro.faults.injector.FaultInjector`); None runs
        fault-free, bit-identical to a controller built directly.
    scheme:
        ``"skyran"``, ``"uniform"``, ``"centroid"``, ``"fleet"`` or
        ``"events"``.
    altitude:
        Pin the operating altitude (required semantics for the
        fixed-altitude baselines, optional for SkyRAN, which otherwise
        runs its own first-epoch search).
    n_uavs / reuse_factor:
        Fleet knobs, used by ``scheme="fleet"`` only: fleet size and
        frequency reuse factor.  The fleet scheme takes over cell attachment — UEs are moved off the
        scenario's eNodeB onto per-cell eNodeBs — runs through the
        same epoch loop as the single-cell schemes, and scores its
        records from SINR (the fleet columns of :class:`EpochRecord`;
        ``budget_per_epoch_m`` is per UAV).  ``n_uavs=1`` is the
        degenerate fleet: the single cell flies exactly the standalone
        SkyRAN controller's path.
    events / arrival_params / serve_time_s / mobility:
        Event-layer knobs, used by ``scheme="events"`` only.
        ``events`` is an :class:`~repro.events.simulate.EventConfig`
        (defaults to one with paper-ish RACH numerology);
        ``arrival_params`` feeds the arrival-process factory;
        ``serve_time_s`` is the simulated serving window the event
        loop runs for; ``mobility`` is an optional
        :class:`~repro.mobility.models.MobilityModel` stepping
        attached UEs.  The events scheme takes over attachment — UEs
        start detached and earn registration through the RACH — and
        ``n_epochs`` becomes a *cap* on trigger-driven re-plans rather
        than an exact count.
    """
    from repro.baselines.centroid import CentroidController
    from repro.baselines.uniform import UniformController
    from repro.core.config import SkyRANConfig
    from repro.core.controller import SkyRANController
    from repro.faults.injector import as_injector

    cfg = config if config is not None else SkyRANConfig()
    injector = as_injector(faults)
    if scheme in ("skyran", "events"):
        controller = SkyRANController(
            scenario.channel, scenario.enodeb, cfg, seed=seed, faults=injector
        )
        if altitude is not None:
            controller.altitude = float(altitude)
    elif scheme in ("uniform", "centroid"):
        baseline = UniformController if scheme == "uniform" else CentroidController
        controller = baseline(
            scenario.channel,
            scenario.enodeb,
            cfg,
            altitude=float(altitude if altitude is not None else DEFAULT_FIXED_ALTITUDE_M),
            seed=seed,
            faults=injector,
        )
    elif scheme == "fleet":
        # The fleet owns cell attachment: detach every UE from the
        # scenario's (single-cell) eNodeB so association can hand them
        # to per-cell eNodeBs.
        scenario.enodeb.deregister_all()
        controller = FleetController(
            channel=scenario.channel,
            ues=list(scenario.ues),
            n_uavs=n_uavs,
            config=cfg,
            seed=seed,
            reuse_factor=reuse_factor,
            faults=injector,
        )
        if altitude is not None:
            for ctrl in controller.controllers:
                ctrl.altitude = float(altitude)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    before = perf.counters()
    extra: Dict = {}
    if scheme == "events":
        from repro.events.simulate import EventConfig

        if mobility is not None:
            scenario.enodeb.mobility = mobility
        records, sim = _run_event_epochs(
            scenario,
            controller,
            events if events is not None else EventConfig(),
            serve_time_s=serve_time_s,
            n_epochs=n_epochs,
            budget_per_epoch_m=budget_per_epoch_m,
            arrival_params=arrival_params,
            seed=seed,
            faults=injector,
        )
        extra = {"event_counters": dict(sim.counters), "population": sim.population()}
    else:
        records = run_epochs(
            scenario,
            controller,
            n_epochs,
            budget_per_epoch_m=budget_per_epoch_m,
            move_fraction=move_fraction,
            seed=seed,
        )
    return RunResult(
        scheme=scheme,
        records=tuple(records),
        **_counter_deltas(before),
        **extra,
    )
