"""The three TTI schedulers, looked up by string name.

Each scheduler answers one question per TTI: how are the carrier's
``n_prb`` PRBs split across the UEs that currently have data and a
usable link?  Three classic disciplines are provided:

``round_robin``
    Equal PRB split over schedulable UEs; the remainder PRBs rotate
    with the TTI index so long-run shares are exactly fair (the seed's
    one-shot scheduler always gave the remainder to the lowest ids).
``proportional_fair``
    Per-PRB greedy argmax of ``rate / average_served`` with the
    average updated *within* the TTI as PRBs are granted (virtual
    pending bytes) and across TTIs by an EWMA.  The within-TTI update
    makes the discipline degenerate **exactly** to round-robin —
    including the rotated remainder — when every UE has the same rate
    and backlog, which is the identity the property tests pin.
``max_min``
    Per-PRB greedy argmin of bytes granted so far this TTI: equalizes
    granted capacity in bytes, so low-rate UEs get more PRBs.

A scheduler is three methods: ``reset(n_ues)``, ``grants`` (one TTI)
and ``update(served)``.  Round-robin's ``grants`` is numpy over UEs.
The two greedy disciplines run on a ``heapq``: granting a PRB changes
only the winner's key, so each PRB is one ``heapreplace`` and a TTI costs
O(n + n_prb log n) Python operations instead of ``n_prb`` numpy
passes over every UE.  The tests hold every discipline bit for bit to
a linear-scan pure-Python oracle (``tests/traffic_oracles.py``), the
equivalence the traffic smoke gate asserts.  Ties in the greedy
argmax/argmin resolve to the first UE in *rotated* schedulable order
(rotation = ``tti mod n_active``), which is what aligns all three
disciplines on the same grant under full symmetry; the heaps keep it
by keying on ``(key, rotated position)``, whose tuple order is
exactly that first-in-order rule.

:func:`round_robin_slab` states the round-robin rule for a whole batch
at once, by each UE's rank in a schedulable set that never changes
within it; the city MAC (:mod:`repro.city.mac`) grants from it, one
shard of the population's rows at a time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: Denominator floor for the PF metric when a UE's EWMA average is
#: still zero (or NaN).
TINY_BYTES = 1e-12

#: EWMA horizon of PF's per-UE average served rate (TTIs): the
#: canonical PF ``T`` of the metric ``r / T``.
PF_TIME_CONSTANT_TTI = 100


def rotated_schedulable(schedulable: np.ndarray, tti: int) -> np.ndarray:
    """Schedulable UE indices, ascending, rotated by ``tti``.

    The rotation is the tie-break order every discipline shares: UE at
    rotated position 0 wins ties, gets the first remainder PRB, etc.
    """
    idx = np.flatnonzero(np.asarray(schedulable, dtype=bool))
    n_a = len(idx)
    if n_a == 0:
        return idx
    rho = int(tti) % n_a
    if rho == 0:
        return idx
    return np.concatenate([idx[rho:], idx[:rho]])


def round_robin_slab(
    n: int,
    idx: np.ndarray,
    ranks: np.ndarray,
    n_active: int,
    n_prb: int,
    tti0: int,
    n_tti: int,
) -> np.ndarray:
    """``(n, n_tti)`` round-robin grants for TTIs ``tti0 ..``.

    Rows ``idx`` hold the UEs whose ranks among the ``n_active``
    schedulable UEs are ``ranks``; every other row is zero.  Each gets
    ``n_prb // n_active`` PRBs, plus one remainder PRB in TTI ``tti``
    when ``(rank - tti) mod n_active`` is below the remainder.  Column
    ``t`` of a UE is entry ``e + t`` of one pattern row, ``pattern[j] =
    base + ((n_active - 1 - j) mod n_active < rem)``, where ``e =
    n_active - 1 - (rank - tti0) mod n_active``: each UE's row is a
    window of that row, copied in one gather, with no 2-D scatter.
    """
    out = np.zeros((n, n_tti), dtype=np.int64)
    if n_active == 0 or len(idx) == 0:
        return out
    base, rem = divmod(int(n_prb), n_active)
    if not rem:
        out[idx] = base
        return out
    e = (n_active - 1) - (np.asarray(ranks, dtype=np.int64) - int(tti0)) % n_active
    e0 = int(e.min())
    j = np.arange(e0, int(e.max()) + n_tti)
    pattern = base + (((n_active - 1 - j) % n_active) < rem)
    out[idx] = sliding_window_view(pattern, n_tti)[e - e0]
    return out


@dataclass
class RoundRobinScheduler:
    """Equal split with TTI-rotated remainder PRBs."""

    name: str = field(default="round_robin", init=False)

    def reset(self, n_ues: int) -> None:
        pass

    def grants(
        self,
        schedulable: np.ndarray,
        bytes_per_prb: np.ndarray,
        n_prb: int,
        tti: int,
    ) -> np.ndarray:
        n = len(schedulable)
        out = np.zeros(n, dtype=np.int64)
        idx = np.flatnonzero(np.asarray(schedulable, dtype=bool))
        n_a = len(idx)
        if n_a == 0:
            return out
        base, rem = divmod(int(n_prb), n_a)
        out[idx] = base
        if rem:
            rho = int(tti) % n_a
            pos = np.arange(n_a)
            out[idx[((pos - rho) % n_a) < rem]] += 1
        return out

    def update(self, served_bytes: np.ndarray) -> None:
        pass


@dataclass
class ProportionalFairScheduler:
    """Per-PRB greedy PF with an EWMA served-rate average.

    ``grants`` keeps a heap of ``(-rate / (avg + pending), rotated
    position)``; each PRB goes to the top, whose key alone is
    recomputed and ``heapreplace``-d, so a TTI costs O(n + n_prb log
    n).  Negating the metric is exact, so the heap's first-minimum is
    the first maximum in rotated order, ties included.  The average
    is an EWMA over :data:`PF_TIME_CONSTANT_TTI` TTIs.
    """

    name: str = field(default="proportional_fair", init=False)
    _avg_bytes: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def reset(self, n_ues: int) -> None:
        self._avg_bytes = None

    def _ensure_avg(self, bytes_per_prb: np.ndarray) -> None:
        # Lazy init to one PRB's worth of rate: nonzero for any UE
        # that can be scheduled, and symmetric when the rates are.
        if self._avg_bytes is None:
            self._avg_bytes = np.asarray(bytes_per_prb, dtype=float).copy()

    def grants(
        self,
        schedulable: np.ndarray,
        bytes_per_prb: np.ndarray,
        n_prb: int,
        tti: int,
    ) -> np.ndarray:
        rates = np.asarray(bytes_per_prb, dtype=float)
        self._ensure_avg(rates)
        out = np.zeros(len(schedulable), dtype=np.int64)
        order = rotated_schedulable(schedulable, tti)
        if len(order) <= 1:
            # A lone UE wins every PRB; nobody to rank.
            out[order] = max(int(n_prb), 0)
            return out
        r = rates[order].tolist()
        avg = self._avg_bytes[order].tolist()
        pending = [0.0] * len(order)
        counts = [0] * len(order)
        heap = []
        for k, (r_k, d) in enumerate(zip(r, avg)):
            if not d > 0.0:
                d = TINY_BYTES
            heap.append((-(r_k / d), k))
        heapq.heapify(heap)
        for _ in range(int(n_prb)):
            k = heap[0][1]
            pending[k] += r[k]
            counts[k] += 1
            d = avg[k] + pending[k]
            if not d > 0.0:
                d = TINY_BYTES
            heapq.heapreplace(heap, (-(r[k] / d), k))
        out[order] = counts
        return out

    def update(self, served_bytes: np.ndarray) -> None:
        served = np.asarray(served_bytes, dtype=float)
        if self._avg_bytes is None:
            self._avg_bytes = np.zeros_like(served)
        alpha = 1.0 / float(PF_TIME_CONSTANT_TTI)
        self._avg_bytes = (1.0 - alpha) * self._avg_bytes + alpha * served


@dataclass
class MaxMinScheduler:
    """Equalize granted bytes within each TTI (max-min in capacity).

    ``grants`` keeps a heap of ``(granted bytes, rotated position)``;
    each PRB goes to the top and re-enters at ``granted + rate``, so a
    TTI costs O(n + n_prb log n) with the first-minimum-in-rotated-
    order tie-break.
    """

    name: str = field(default="max_min", init=False)

    def reset(self, n_ues: int) -> None:
        pass

    def grants(
        self,
        schedulable: np.ndarray,
        bytes_per_prb: np.ndarray,
        n_prb: int,
        tti: int,
    ) -> np.ndarray:
        rates = np.asarray(bytes_per_prb, dtype=float)
        out = np.zeros(len(schedulable), dtype=np.int64)
        order = rotated_schedulable(schedulable, tti)
        if len(order) == 0:
            return out
        r = rates[order].tolist()
        counts = [0] * len(order)
        heap = [(0.0, k) for k in range(len(order))]
        for _ in range(int(n_prb)):
            p, k = heap[0]
            counts[k] += 1
            heapq.heapreplace(heap, (p + r[k], k))
        out[order] = counts
        return out

    def update(self, served_bytes: np.ndarray) -> None:
        pass


#: Scheduler name -> class.
_SCHEDULERS: Dict[str, Callable[[], object]] = {
    "round_robin": RoundRobinScheduler,
    "proportional_fair": ProportionalFairScheduler,
    "max_min": MaxMinScheduler,
}


def available_schedulers() -> Tuple[str, ...]:
    """Scheduler names, sorted."""
    return tuple(sorted(_SCHEDULERS))


def make_scheduler(name: str):
    """A fresh scheduler of the named discipline."""
    try:
        factory = _SCHEDULERS[name]
    except KeyError:
        known = ", ".join(available_schedulers())
        raise ValueError(f"unknown scheduler {name!r} (known: {known})") from None
    return factory()
