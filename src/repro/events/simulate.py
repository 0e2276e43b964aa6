"""Event-driven UE attach/churn simulation.

:class:`AttachSimulation` drives the control plane the epoch loop has
so far taken for granted: UEs *arrive* (per an arrival process), fight
through the RACH (preamble contention, RAR grants, access-class
barring, exponential backoff), attach to the eNodeB, hold a session,
move (per a mobility model), and detach — while attach storms from the
fault layer knock attached populations back into simultaneous
re-access.  The eNodeB's registration set therefore *changes under*
the controller, which is exactly what the ``EpochTrigger`` needs to
react to.

Time is a deterministic event heap (:mod:`repro.events.heap`) — no
simpy, no wall clock.  Event kinds:

``arrival``   a UE first requests service
``access``    an access attempt (possibly barred) queueing for PRACH
``rach``      one PRACH opportunity: contention over the queued UEs
``attach``    contention winner completes msg3/msg4 and registers
``detach``    a session ends and the UE deregisters
``storm``     a fault-plan onset knocks attached UEs into re-access
``move``      periodic mobility step over attached UEs
``kpi``       periodic serving-KPI sample (the trigger's heartbeat)

RNG contract
------------

Three stream families spawn from the run seed, all tagged with
:data:`~repro.events.arrivals.EVENTS_SPAWN_KEY` so they can never
collide with traffic, fault, or controller randomness:

* ``(KEY, 0)`` — the arrival process's draws;
* ``(KEY, 1)`` — mobility steps;
* ``(KEY, 2, ue_id)`` — per-UE access randomness (preambles, ACB,
  backoff, session length).  Streams depend only on ``(seed, ue_id)``,
  so one UE's draws never reshuffle another's, and a replay with the
  same seed is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor
from typing import Callable, Dict, List, Optional, Set

import numpy as np

from repro.events.arrivals import EVENTS_SPAWN_KEY, make_arrival_process
from repro.events.heap import EventQueue
from repro.events.rach import (
    DEFAULT_N_PREAMBLES,
    AccessState,
    backoff_wait_s,
    barring_wait_s,
    resolve_contention,
)
from repro.faults.injector import FaultInjector
from repro.lte.enodeb import ENodeB
from repro.lte.ue import UE
from repro.perf import perf


@dataclass(frozen=True, kw_only=True)
class EventConfig:
    """Knobs of the attach/churn control plane.

    Attributes
    ----------
    arrival_process:
        Registered arrival-process name (``uniform``, ``poisson``,
        ``stadium``, ``flash_crowd``).
    arrival_window_s:
        Window the arrival process spreads first arrivals over.
    session_mean_s:
        Mean (exponential) session length; 0 disables churn — attached
        UEs stay for the whole run.
    rach_period_s:
        PRACH opportunity spacing (config index 3: one per 5 ms frame
        pair is common; the default 5 ms keeps storms sharp).
    n_preambles:
        Contention preambles per opportunity.
    rar_window_grants:
        msg2 grants the RAR window can carry per opportunity; clean
        preambles beyond this starve and retry.
    attach_delay_s:
        msg3/msg4 latency between winning contention and registering.
    max_attach_attempts:
        Access attempts before a UE gives up (counts as ``failed``).
    backoff_max_s:
        Base of the capped binary-exponential backoff spread.
    acb_threshold:
        Access-class barring engages while more than this many UEs are
        simultaneously waiting for access (an overload-triggered SIB2
        rewrite).  Barring never engages with ``barring_factor`` 1.0.
    barring_factor / barring_time_s:
        TS 36.331 ACB parameters used while barring is engaged.
    move_period_s:
        Mobility step period (0 disables stepping even with a model).
    kpi_period_s:
        Serving-KPI sampling period — how often the epoch trigger sees
        a fresh sample.
    """

    arrival_process: str = "poisson"
    arrival_window_s: float = 60.0
    session_mean_s: float = 0.0
    rach_period_s: float = 0.005
    n_preambles: int = DEFAULT_N_PREAMBLES
    rar_window_grants: int = 8
    attach_delay_s: float = 0.03
    max_attach_attempts: int = 10
    backoff_max_s: float = 0.02
    acb_threshold: int = 64
    barring_factor: float = 0.5
    barring_time_s: float = 4.0
    move_period_s: float = 1.0
    kpi_period_s: float = 5.0

    def __post_init__(self) -> None:
        if self.arrival_window_s <= 0:
            raise ValueError(f"arrival_window_s must be positive, got {self.arrival_window_s}")
        if self.session_mean_s < 0:
            raise ValueError(f"session_mean_s must be >= 0, got {self.session_mean_s}")
        if self.rach_period_s <= 0:
            raise ValueError(f"rach_period_s must be positive, got {self.rach_period_s}")
        if self.n_preambles < 1:
            raise ValueError(f"n_preambles must be >= 1, got {self.n_preambles}")
        if self.rar_window_grants < 1:
            raise ValueError(f"rar_window_grants must be >= 1, got {self.rar_window_grants}")
        if self.attach_delay_s < 0:
            raise ValueError(f"attach_delay_s must be >= 0, got {self.attach_delay_s}")
        if self.max_attach_attempts < 1:
            raise ValueError(f"max_attach_attempts must be >= 1, got {self.max_attach_attempts}")
        if self.backoff_max_s <= 0:
            raise ValueError(f"backoff_max_s must be positive, got {self.backoff_max_s}")
        if self.acb_threshold < 0:
            raise ValueError(f"acb_threshold must be >= 0, got {self.acb_threshold}")
        if not 0.0 < self.barring_factor <= 1.0:
            raise ValueError(f"barring_factor must be in (0, 1], got {self.barring_factor}")
        if self.barring_time_s < 0:
            raise ValueError(f"barring_time_s must be >= 0, got {self.barring_time_s}")
        if self.move_period_s < 0:
            raise ValueError(f"move_period_s must be >= 0, got {self.move_period_s}")
        if self.kpi_period_s <= 0:
            raise ValueError(f"kpi_period_s must be positive, got {self.kpi_period_s}")


class AttachSimulation:
    """Runs the attach/churn control plane over an eNodeB.

    The eNodeB should start with *no* registered UEs; the simulation
    owns registration for the run.  ``on_population_change(t_s)`` fires
    after every registration-set change (attach, detach, storm
    knock-off) and ``on_kpi(t_s)`` at every KPI heartbeat — the runner
    wires these to the controller's MAC rebuild and epoch trigger.
    """

    def __init__(
        self,
        enodeb: ENodeB,
        ues: List[UE],
        config: EventConfig,
        seed: int = 0,
        arrival_params: Optional[Dict] = None,
        faults: Optional[FaultInjector] = None,
        on_population_change: Optional[Callable[[float], None]] = None,
        on_kpi: Optional[Callable[[float], None]] = None,
    ) -> None:
        ids = [ue.ue_id for ue in ues]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate UE ids")
        self.enodeb = enodeb
        self.ues = {ue.ue_id: ue for ue in ues}
        self.config = config
        self.seed = int(seed)
        self.arrival_params = dict(arrival_params or {})
        self.faults = faults
        self.on_population_change = on_population_change
        self.on_kpi = on_kpi
        self.queue = EventQueue()
        self.now_s = 0.0
        self.state: Dict[int, AccessState] = {
            ue_id: AccessState.PENDING for ue_id in self.ues
        }
        self.counters: Dict[str, int] = {
            "arrivals": 0,
            "attaches": 0,
            "detaches": 0,
            "rach_attempts": 0,
            "rach_collisions": 0,
            "rach_starved": 0,
            "barred": 0,
            "backoffs": 0,
            "failed": 0,
            "storm_onsets": 0,
            "storm_knockoffs": 0,
        }
        self._arrivals_rng = np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(EVENTS_SPAWN_KEY, 0))
        )
        self._mobility_rng = np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(EVENTS_SPAWN_KEY, 1))
        )
        self._ue_rng: Dict[int, np.random.Generator] = {}
        self._attempts: Dict[int, int] = {ue_id: 0 for ue_id in self.ues}
        #: Session generation per UE: bumped on every storm knock-off
        #: and re-attach so a detach scheduled for a *previous* session
        #: is recognized as stale and dropped.
        self._generation: Dict[int, int] = {ue_id: 0 for ue_id in self.ues}
        self._rach_queue: Set[int] = set()
        self._rach_scheduled: Set[float] = set()
        self._arrival_times: Optional[np.ndarray] = None

    # -- per-UE streams -----------------------------------------------------------

    def _rng_for(self, ue_id: int) -> np.random.Generator:
        rng = self._ue_rng.get(ue_id)
        if rng is None:
            rng = np.random.default_rng(
                np.random.SeedSequence(
                    self.seed, spawn_key=(EVENTS_SPAWN_KEY, 2, int(ue_id))
                )
            )
            self._ue_rng[ue_id] = rng
        return rng

    # -- bookkeeping ---------------------------------------------------------------

    def population(self) -> Dict[str, int]:
        """Lifecycle census; values always sum to the spawned UE count."""
        counts = {s.value: 0 for s in AccessState}
        for s in self.state.values():
            counts[s.value] += 1
        return counts

    def attached_ids(self) -> List[int]:
        return sorted(
            ue_id
            for ue_id, s in self.state.items()
            if s is AccessState.ATTACHED
        )

    def _waiting_count(self) -> int:
        return sum(1 for s in self.state.values() if s is AccessState.WAITING)

    def _count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n
        perf.count(f"events.{name}", n)

    def _notify_population(self) -> None:
        if self.on_population_change is not None:
            self.on_population_change(self.now_s)

    # -- scheduling helpers --------------------------------------------------------

    def _schedule_access(self, ue_id: int, t_s: float) -> None:
        self.queue.push(t_s, "access", ue_id)

    def _schedule_rach_opportunity(self, after_s: float) -> None:
        """Ensure a PRACH opportunity event exists at the next boundary."""
        period = self.config.rach_period_s
        t_op = (floor(after_s / period + 1e-9) + 1) * period
        if t_op not in self._rach_scheduled:
            self._rach_scheduled.add(t_op)
            self.queue.push(t_op, "rach", None)

    # -- event handlers ------------------------------------------------------------

    def _handle_arrival(self, ue_id: int) -> None:
        self.state[ue_id] = AccessState.WAITING
        self._count("arrivals")
        self._schedule_access(ue_id, self.now_s)

    def _handle_access(self, ue_id: int) -> None:
        if self.state[ue_id] is not AccessState.WAITING:
            return  # attached by an earlier event at this timestamp
        cfg = self.config
        barring_engaged = (
            cfg.barring_factor < 1.0 and self._waiting_count() > cfg.acb_threshold
        )
        if barring_engaged:
            wait = barring_wait_s(
                self._rng_for(ue_id), cfg.barring_factor, cfg.barring_time_s
            )
            if wait > 0.0:
                self._count("barred")
                self._schedule_access(ue_id, self.now_s + wait)
                return
        self._rach_queue.add(ue_id)
        self._schedule_rach_opportunity(self.now_s)

    def _handle_rach(self) -> None:
        self._rach_scheduled.discard(self.now_s)
        contenders = sorted(
            ue_id
            for ue_id in self._rach_queue
            if self.state[ue_id] is AccessState.WAITING
        )
        self._rach_queue.clear()
        if not contenders:
            return
        cfg = self.config
        draws = {
            ue_id: int(self._rng_for(ue_id).integers(cfg.n_preambles))
            for ue_id in contenders
        }
        outcome = resolve_contention(contenders, draws, cfg.rar_window_grants)
        self._count("rach_attempts", len(contenders))
        if outcome.collided:
            self._count("rach_collisions", len(outcome.collided))
        if outcome.starved:
            self._count("rach_starved", len(outcome.starved))
        for ue_id in outcome.winners:
            self.queue.push(
                self.now_s + cfg.attach_delay_s,
                "attach",
                (ue_id, self._generation[ue_id]),
            )
        for ue_id in (*outcome.collided, *outcome.starved):
            self._attempts[ue_id] += 1
            if self._attempts[ue_id] >= cfg.max_attach_attempts:
                self.state[ue_id] = AccessState.FAILED
                self._count("failed")
                continue
            self._count("backoffs")
            wait = backoff_wait_s(
                self._rng_for(ue_id), cfg.backoff_max_s, self._attempts[ue_id]
            )
            self._schedule_access(ue_id, self.now_s + wait)

    def _handle_attach(self, ue_id: int, generation: int) -> None:
        if generation != self._generation[ue_id]:
            return  # a storm knocked this UE off between msg2 and msg4
        if self.state[ue_id] is not AccessState.WAITING:
            return
        self.state[ue_id] = AccessState.ATTACHED
        self._attempts[ue_id] = 0
        self.enodeb.register_ue(self.ues[ue_id])
        self._count("attaches")
        if self.config.session_mean_s > 0:
            session = float(
                self._rng_for(ue_id).exponential(self.config.session_mean_s)
            )
            self.queue.push(
                self.now_s + session, "detach", (ue_id, self._generation[ue_id])
            )
        self._notify_population()

    def _handle_detach(self, ue_id: int, generation: int) -> None:
        if generation != self._generation[ue_id]:
            return  # stale: the session this detach belonged to is gone
        if self.state[ue_id] is not AccessState.ATTACHED:
            return
        self.state[ue_id] = AccessState.DETACHED
        self._generation[ue_id] += 1
        self.enodeb.deregister_ue(ue_id)
        self._count("detaches")
        self._notify_population()

    def _handle_storm(self) -> None:
        """One storm onset: knock attached UEs into simultaneous re-access.

        Models a cell-wide radio-link-failure burst: the affected UEs
        (lowest ids first, a deterministic choice) lose their session,
        deregister, and all hit the very next PRACH opportunity at
        once — the collision storm ACB exists to absorb.
        """
        self._count("storm_onsets")
        attached = self.attached_ids()
        victims = attached[: self.faults.plan.storm_burst_ues]
        if not victims:
            return
        for ue_id in victims:
            self.state[ue_id] = AccessState.WAITING
            self._generation[ue_id] += 1  # orphans the pending detach
            self._attempts[ue_id] = 0
            self.enodeb.deregister_ue(ue_id)
            self._schedule_access(ue_id, self.now_s)
        self._count("storm_knockoffs", len(victims))
        self._notify_population()

    def _handle_move(self) -> None:
        mobility = self.enodeb.mobility
        if mobility is None:
            return
        dt = self.config.move_period_s
        for ue_id in self.attached_ids():
            mobility.step(self.ues[ue_id], dt, self._mobility_rng)

    # -- the run -------------------------------------------------------------------

    def run(self, duration_s: float) -> Dict[str, int]:
        """Run the event loop for ``duration_s`` simulated seconds.

        Returns the counter dict.  Callbacks (`on_kpi`,
        ``on_population_change``) execute at their event's timestamp;
        whatever real work they do (an epoch re-plan, a MAC rebuild)
        does not advance event time.
        """
        if duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {duration_s}")
        cfg = self.config
        process = make_arrival_process(cfg.arrival_process, **self.arrival_params)
        window = min(cfg.arrival_window_s, duration_s)
        times = process.times(len(self.ues), window, self._arrivals_rng)
        self._arrival_times = times
        for ue_id, t in zip(sorted(self.ues), times):
            self.queue.push(float(t), "arrival", ue_id)
        if self.faults is not None:
            for onset in self.faults.storm_onsets(duration_s):
                self.queue.push(float(onset), "storm", None)
        if cfg.move_period_s > 0 and self.enodeb.mobility is not None:
            t = cfg.move_period_s
            while t <= duration_s:
                self.queue.push(t, "move", None)
                t += cfg.move_period_s
        t = cfg.kpi_period_s
        while t <= duration_s:
            self.queue.push(t, "kpi", None)
            t += cfg.kpi_period_s

        handlers = {
            "arrival": lambda p: self._handle_arrival(p),
            "access": lambda p: self._handle_access(p),
            "rach": lambda p: self._handle_rach(),
            "attach": lambda p: self._handle_attach(*p),
            "detach": lambda p: self._handle_detach(*p),
            "storm": lambda p: self._handle_storm(),
            "move": lambda p: self._handle_move(),
            "kpi": lambda p: self.on_kpi(self.now_s) if self.on_kpi else None,
        }
        while self.queue:
            if self.queue.peek_time() > duration_s:
                break
            event = self.queue.pop()
            self.now_s = event.time_s
            handlers[event.kind](event.payload)
        self.now_s = duration_s
        return dict(self.counters)
