"""Pluggable TTI schedulers behind a string-keyed registry.

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

Round-robin's ``grants`` is numpy over UEs.  The two greedy
disciplines run on a ``heapq``: granting a PRB changes only the
winner's key, so each PRB is one ``heapreplace`` and a TTI costs
O(n + n_prb log n) Python operations instead of ``n_prb`` numpy
passes over every UE.  Every scheduler also has a pure-Python
reference path (``grants_reference``) performing the identical float
operations in the identical order, so the two are bit-exact — the
equivalence the traffic smoke gate asserts.  Ties in the greedy
argmax/argmin resolve to the first UE in *rotated* schedulable order
(rotation = ``tti mod n_active``), which is what aligns all three
disciplines on the same grant under full symmetry; the heaps keep it
by keying on ``(key, rotated position)``, whose tuple order is
exactly that first-in-order rule.

Stateless disciplines additionally expose ``grants_slab`` — a whole
(UEs x TTIs) grant matrix in one shot — which the kernel uses when the
schedulable set cannot change within a batch (full-buffer runs).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

#: Denominator floor for the PF metric when a UE's EWMA average is
#: still zero (never served, zero-rate history).  Applied identically
#: in the heap and reference paths so they stay bit-exact.
TINY_BYTES = 1e-12


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

    def grants_reference(
        self,
        schedulable,
        bytes_per_prb,
        n_prb: int,
        tti: int,
    ) -> list:
        n = len(schedulable)
        out = [0] * n
        idx = [i for i in range(n) if schedulable[i]]
        n_a = len(idx)
        if n_a == 0:
            return out
        base, rem = divmod(int(n_prb), n_a)
        rho = int(tti) % n_a
        for pos, i in enumerate(idx):
            out[i] = base + (1 if (pos - rho) % n_a < rem else 0)
        return out

    def grants_slab(
        self,
        schedulable: np.ndarray,
        bytes_per_prb: np.ndarray,
        n_prb: int,
        tti0: int,
        n_tti: int,
    ) -> Optional[np.ndarray]:
        """All TTIs of a constant-schedulable-set batch at once."""
        n = len(schedulable)
        out = np.zeros((n, n_tti), dtype=np.int64)
        idx = np.flatnonzero(np.asarray(schedulable, dtype=bool))
        n_a = len(idx)
        if n_a == 0:
            return out
        base, rem = divmod(int(n_prb), n_a)
        out[idx, :] = base
        if rem:
            rho = (int(tti0) + np.arange(n_tti)) % n_a
            pos = np.arange(n_a)[:, None]
            out[idx[:, None], np.arange(n_tti)[None, :]] += (
                ((pos - rho[None, :]) % n_a) < rem
            ).astype(np.int64)
        return out

    def update(self, served_bytes: np.ndarray) -> None:
        pass

    def update_reference(self, served_bytes) -> None:
        pass


@dataclass(kw_only=True)
class ProportionalFairScheduler:
    """Per-PRB greedy PF with an EWMA served-rate average.

    ``grants`` keeps a heap of ``(-rate / (avg + pending), rotated
    position)``; each PRB goes to the top, whose key alone is
    recomputed and ``heapreplace``-d, so a TTI costs O(n + n_prb log
    n).  Negating the metric is exact, so the heap's first-minimum is
    the reference's first-maximum, ties included.

    Attributes
    ----------
    time_constant_tti:
        EWMA horizon of the per-UE average served rate (TTIs); the
        canonical PF ``T`` of the metric ``r / T``.
    """

    time_constant_tti: int = 100
    name: str = field(default="proportional_fair", init=False)
    _avg_bytes: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.time_constant_tti < 1:
            raise ValueError(
                f"time_constant_tti must be >= 1, got {self.time_constant_tti}"
            )

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
        if len(order) == 0:
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

    def grants_reference(
        self,
        schedulable,
        bytes_per_prb,
        n_prb: int,
        tti: int,
    ) -> list:
        rates = np.asarray(bytes_per_prb, dtype=float)
        self._ensure_avg(rates)
        n = len(schedulable)
        out = [0] * n
        order = [int(i) for i in rotated_schedulable(schedulable, tti)]
        n_a = len(order)
        if n_a == 0:
            return out
        r = [float(rates[i]) for i in order]
        avg = [float(self._avg_bytes[i]) for i in order]
        pending = [0.0] * n_a
        counts = [0] * n_a
        for _ in range(int(n_prb)):
            best_k = 0
            best_m = -1.0
            for k in range(n_a):
                denom = avg[k] + pending[k]
                if not denom > 0.0:
                    denom = TINY_BYTES
                m = r[k] / denom
                if m > best_m:
                    best_m = m
                    best_k = k
            pending[best_k] += r[best_k]
            counts[best_k] += 1
        for k, i in enumerate(order):
            out[i] = counts[k]
        return out

    def grants_slab(self, schedulable, bytes_per_prb, n_prb, tti0, n_tti):
        return None  # EWMA state couples TTIs

    def update(self, served_bytes: np.ndarray) -> None:
        served = np.asarray(served_bytes, dtype=float)
        self._ensure_avg(np.zeros_like(served))
        alpha = 1.0 / float(self.time_constant_tti)
        self._avg_bytes = (1.0 - alpha) * self._avg_bytes + alpha * served

    def update_reference(self, served_bytes) -> None:
        served = np.asarray(served_bytes, dtype=float)
        self._ensure_avg(np.zeros_like(served))
        alpha = 1.0 / float(self.time_constant_tti)
        for i in range(len(served)):
            self._avg_bytes[i] = (1.0 - alpha) * float(self._avg_bytes[i]) + alpha * float(
                served[i]
            )


@dataclass
class MaxMinScheduler:
    """Equalize granted bytes within each TTI (max-min in capacity).

    ``grants`` keeps a heap of ``(granted bytes, rotated position)``;
    each PRB goes to the top and re-enters at ``granted + rate`` — the
    reference's ``pending += rate`` — so a TTI costs O(n + n_prb log
    n) with the reference's first-minimum tie-break.
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

    def grants_reference(
        self,
        schedulable,
        bytes_per_prb,
        n_prb: int,
        tti: int,
    ) -> list:
        rates = np.asarray(bytes_per_prb, dtype=float)
        n = len(schedulable)
        out = [0] * n
        order = [int(i) for i in rotated_schedulable(schedulable, tti)]
        n_a = len(order)
        if n_a == 0:
            return out
        r = [float(rates[i]) for i in order]
        pending = [0.0] * n_a
        counts = [0] * n_a
        for _ in range(int(n_prb)):
            best_k = 0
            best_p = pending[0]
            for k in range(1, n_a):
                if pending[k] < best_p:
                    best_p = pending[k]
                    best_k = k
            pending[best_k] += r[best_k]
            counts[best_k] += 1
        for k, i in enumerate(order):
            out[i] = counts[k]
        return out

    def grants_slab(
        self,
        schedulable: np.ndarray,
        bytes_per_prb: np.ndarray,
        n_prb: int,
        tti0: int,
        n_tti: int,
    ) -> Optional[np.ndarray]:
        """Stateless across TTIs: only ``tti mod n_active`` matters, so
        a batch is ``n_active`` distinct per-TTI allocations, tiled."""
        idx = np.flatnonzero(np.asarray(schedulable, dtype=bool))
        n_a = len(idx)
        n = len(schedulable)
        if n_a == 0:
            return np.zeros((n, n_tti), dtype=np.int64)
        patterns = np.stack(
            [self.grants(schedulable, bytes_per_prb, n_prb, rho) for rho in range(n_a)],
            axis=1,
        )
        return patterns[:, (int(tti0) + np.arange(n_tti)) % n_a]

    def update(self, served_bytes: np.ndarray) -> None:
        pass

    def update_reference(self, served_bytes) -> None:
        pass


_REGISTRY: Dict[str, Callable[..., object]] = {}


def register_scheduler(
    name: str, factory: Callable[..., object], *, override: bool = False
) -> None:
    """Register a scheduler factory under a string name.

    Registering a name that already exists raises unless
    ``override=True`` — a silently clobbered registration is a config
    that quietly runs the wrong discipline.
    """
    if not name:
        raise ValueError("scheduler name must be non-empty")
    if name in _REGISTRY and not override:
        raise ValueError(
            f"scheduler {name!r} is already registered "
            "(pass override=True to replace it)"
        )
    _REGISTRY[name] = factory


def available_schedulers() -> Tuple[str, ...]:
    """Registered scheduler names, sorted."""
    return tuple(sorted(_REGISTRY))


def make_scheduler(name: str, **params):
    """Instantiate a registered scheduler by name.

    Unknown keyword parameters are ignored for dataclass factories so
    one config can carry the union of every discipline's knobs
    (``time_constant_tti`` means nothing to round-robin).
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(available_schedulers())
        raise ValueError(f"unknown scheduler {name!r} (known: {known})") from None
    accepted = getattr(factory, "__dataclass_fields__", None)
    if accepted is not None:
        params = {
            k: v
            for k, v in params.items()
            if k in accepted and accepted[k].init
        }
    return factory(**params)


register_scheduler("round_robin", RoundRobinScheduler)
register_scheduler("proportional_fair", ProportionalFairScheduler)
register_scheduler("max_min", MaxMinScheduler)
