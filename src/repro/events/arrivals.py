"""Arrival processes for the attach/churn event layer.

An arrival process decides *when* each UE first shows up and asks for
service.  Each is a frozen keyword-only dataclass under a fixed string
name, so experiment configs carry the choice as plain data; a knob the
named process does not have raises.

Four processes cover the paper's deployment stories:

* ``uniform`` — arrivals spread evenly over the window (steady trickle).
* ``poisson`` — memoryless arrivals (exponential spacing, renormalized
  to the window so every UE does arrive).
* ``stadium`` — the event-venue profile: arrivals pile up toward a
  gate-opening instant (beta-shaped ramp), the flash crowd SkyRAN's
  Section 5.2 "gathering" dynamics describe.
* ``flash_crowd`` — everyone inside one short burst window; the
  worst-case RACH storm.

RNG contract
------------

``times(n_ues, duration_s, rng)`` consumes the *caller's* generator —
the event layer passes a dedicated stream spawned from
``SeedSequence(seed, spawn_key=(EVENTS_SPAWN_KEY, 0))``, so arrival
draws never touch controller, traffic, or fault randomness.
Deterministic processes (``uniform``) draw nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

#: Spawn-key tag isolating event-layer streams from every other
#: consumer of the run seed (traffic uses 0x7452, faults use the plan
#: seed's own spawn tree).
EVENTS_SPAWN_KEY = 0x7261  # "ra" — random access


def _check_window(n_ues: int, duration_s: float) -> None:
    if n_ues < 0:
        raise ValueError(f"n_ues must be >= 0, got {n_ues}")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be positive, got {duration_s}")


@dataclass(frozen=True, kw_only=True)
class UniformArrivals:
    """Evenly spaced arrivals over the window; draws no RNG."""

    def times(
        self, n_ues: int, duration_s: float, rng: np.random.Generator
    ) -> np.ndarray:
        _check_window(n_ues, duration_s)
        del rng
        if n_ues == 0:
            return np.empty(0, dtype=float)
        # Midpoints of n equal slots: no arrival exactly at t=0 or t=T.
        return (np.arange(n_ues) + 0.5) * (float(duration_s) / n_ues)


@dataclass(frozen=True, kw_only=True)
class PoissonArrivals:
    """Memoryless arrivals, renormalized so all UEs land in-window.

    Draws i.i.d. uniforms over the window — the order statistics of a
    conditioned Poisson process — then sorts.  Every UE arrives.
    """

    def times(
        self, n_ues: int, duration_s: float, rng: np.random.Generator
    ) -> np.ndarray:
        _check_window(n_ues, duration_s)
        if n_ues == 0:
            return np.empty(0, dtype=float)
        return np.sort(rng.uniform(0.0, float(duration_s), n_ues))


@dataclass(frozen=True, kw_only=True)
class StadiumArrivals:
    """Gate-opening ramp: arrivals concentrate around ``peak_frac``.

    A Beta(a, b) profile over the window with its mode at
    ``peak_frac`` — a trickle early, a surge at the peak, stragglers
    after.  ``sharpness`` scales how concentrated the surge is.
    """

    peak_frac: float = 0.3
    sharpness: float = 8.0

    def __post_init__(self) -> None:
        if not 0.0 < self.peak_frac < 1.0:
            raise ValueError(f"peak_frac must be in (0, 1), got {self.peak_frac}")
        if self.sharpness <= 0:
            raise ValueError(f"sharpness must be positive, got {self.sharpness}")

    def times(
        self, n_ues: int, duration_s: float, rng: np.random.Generator
    ) -> np.ndarray:
        _check_window(n_ues, duration_s)
        if n_ues == 0:
            return np.empty(0, dtype=float)
        # Mode of Beta(a, b) is (a-1)/(a+b-2): solve for a at fixed
        # concentration a+b = sharpness + 2.
        a = 1.0 + self.sharpness * self.peak_frac
        b = 1.0 + self.sharpness * (1.0 - self.peak_frac)
        return np.sort(rng.beta(a, b, n_ues)) * float(duration_s)


@dataclass(frozen=True, kw_only=True)
class FlashCrowdArrivals:
    """Everyone inside one short burst: the worst-case RACH storm.

    All UEs arrive uniformly within ``burst_s`` seconds starting at
    ``start_frac`` of the window.
    """

    start_frac: float = 0.1
    burst_s: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.start_frac < 1.0:
            raise ValueError(f"start_frac must be in [0, 1), got {self.start_frac}")
        if self.burst_s <= 0:
            raise ValueError(f"burst_s must be positive, got {self.burst_s}")

    def times(
        self, n_ues: int, duration_s: float, rng: np.random.Generator
    ) -> np.ndarray:
        _check_window(n_ues, duration_s)
        if n_ues == 0:
            return np.empty(0, dtype=float)
        start = self.start_frac * float(duration_s)
        width = min(self.burst_s, float(duration_s) - start)
        return np.sort(start + rng.uniform(0.0, width, n_ues))


#: Arrival-process name -> class.
_PROCESSES: Dict[str, type] = {
    "uniform": UniformArrivals,
    "poisson": PoissonArrivals,
    "stadium": StadiumArrivals,
    "flash_crowd": FlashCrowdArrivals,
}


def available_arrival_processes() -> Tuple[str, ...]:
    """Arrival-process names, sorted."""
    return tuple(sorted(_PROCESSES))


def make_arrival_process(name: str, **params):
    """The named arrival process with ``params`` as its settings.

    A keyword the process does not take raises ``TypeError``.
    """
    try:
        factory = _PROCESSES[name]
    except KeyError:
        known = ", ".join(available_arrival_processes())
        raise ValueError(
            f"unknown arrival process {name!r} (known: {known})"
        ) from None
    return factory(**params)
