"""Event-driven attach/churn control plane.

A deterministic discrete-event layer (no simpy) simulating the UE
lifecycle the epoch loop previously took for granted: arrivals, RACH
contention, access-class barring, attach/detach churn, attach storms,
and mobility stepping — all feeding the eNodeB registration set and
the controller's epoch trigger.
"""

from repro.events.arrivals import (
    EVENTS_SPAWN_KEY,
    available_arrival_processes,
    make_arrival_process,
)
from repro.events.heap import Event, EventQueue
from repro.events.rach import (
    DEFAULT_N_PREAMBLES,
    AccessState,
    RachOutcome,
    backoff_wait_s,
    barring_wait_s,
    resolve_contention,
)
from repro.events.simulate import AttachSimulation, EventConfig

__all__ = [
    "EVENTS_SPAWN_KEY",
    "available_arrival_processes",
    "make_arrival_process",
    "Event",
    "EventQueue",
    "DEFAULT_N_PREAMBLES",
    "AccessState",
    "RachOutcome",
    "backoff_wait_s",
    "barring_wait_s",
    "resolve_contention",
    "AttachSimulation",
    "EventConfig",
]
