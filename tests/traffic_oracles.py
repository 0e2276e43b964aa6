"""Pure-Python oracles for the TTI-batch MAC kernel.

:func:`repro.traffic.simulate.run_tti_batch` runs admit → grant →
drain as numpy over UEs and grants from heaps, and the city MAC
(:func:`repro.city.mac.run_city_mac`) takes round-robin grants for a
whole batch at once.  :func:`replay` restates the same recurrence one
UE and one TTI at a time in Python floats, with its own grant rule per
discipline:

* :class:`RoundRobin` — equal split, remainder PRBs to the first UEs
  in rotated order;
* :class:`ProportionalFair` — per-PRB linear-scan argmax of
  ``rate / (avg + pending)``, 100-TTI EWMA ``avg`` kept here,
  initialized lazily to the rates on the first grant;
* :class:`MaxMin` — per-PRB linear-scan argmin of bytes granted so far.

Ties go to the first UE in rotated schedulable order (rotation =
``tti mod n_active``).  Every float operation happens in the kernel's
order (``avail = backlog + offered``, ``served = min(avail, cap)``,
``backlog = avail - served``), so a correct kernel is bit-identical to
the replay.  Nothing here calls into :mod:`repro.traffic`: an oracle
object carries all of its own state across :func:`replay` calls, so
chunked batches replay like one long batch.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence

import numpy as np

#: The PF denominator floor for a zero (or NaN) average.
TINY_BYTES = 1e-12


def _rotated(schedulable: Sequence[bool], tti: int) -> List[int]:
    idx = [i for i, s in enumerate(schedulable) if s]
    if not idx:
        return idx
    rho = int(tti) % len(idx)
    return idx[rho:] + idx[:rho]


class RoundRobin:
    """Equal PRB split; remainder PRBs rotate with the TTI."""

    def grants(self, schedulable, rates, n_prb: int, tti: int) -> List[int]:
        out = [0] * len(schedulable)
        order = _rotated(schedulable, tti)
        if order:
            base, rem = divmod(int(n_prb), len(order))
            for pos, i in enumerate(order):
                out[i] = base + (1 if pos < rem else 0)
        return out

    def update(self, served) -> None:
        pass


class ProportionalFair:
    """Per-PRB greedy ``rate / (avg + pending)`` with an EWMA ``avg``."""

    def __init__(self) -> None:
        self.alpha = 1.0 / 100.0
        self.avg: Optional[List[float]] = None

    def grants(self, schedulable, rates, n_prb: int, tti: int) -> List[int]:
        if self.avg is None:
            self.avg = [float(r) for r in rates]
        out = [0] * len(schedulable)
        order = _rotated(schedulable, tti)
        pending = [0.0] * len(order)
        for _ in range(int(n_prb) if order else 0):
            best_k, best_m = 0, -1.0
            for k, i in enumerate(order):
                denom = self.avg[i] + pending[k]
                if not denom > 0.0:
                    denom = TINY_BYTES
                m = float(rates[i]) / denom
                if m > best_m:
                    best_k, best_m = k, m
            pending[best_k] += float(rates[order[best_k]])
            out[order[best_k]] += 1
        return out

    def update(self, served) -> None:
        if self.avg is None:
            self.avg = [0.0] * len(served)
        a = self.alpha
        self.avg = [(1.0 - a) * v + a * float(s) for v, s in zip(self.avg, served)]


class MaxMin:
    """Per-PRB greedy argmin of the bytes granted so far this TTI."""

    def grants(self, schedulable, rates, n_prb: int, tti: int) -> List[int]:
        out = [0] * len(schedulable)
        order = _rotated(schedulable, tti)
        pending = [0.0] * len(order)
        for _ in range(int(n_prb) if order else 0):
            best_k = min(range(len(order)), key=pending.__getitem__)
            pending[best_k] += float(rates[order[best_k]])
            out[order[best_k]] += 1
        return out

    def update(self, served) -> None:
        pass


def make_oracle(name: str):
    """The oracle of a scheduler name."""
    return {
        "round_robin": RoundRobin,
        "proportional_fair": ProportionalFair,
        "max_min": MaxMin,
    }[name]()


class Replay(NamedTuple):
    """One replayed batch; fields named as on ``MACBatchResult``."""

    grants: np.ndarray
    served_bytes: np.ndarray
    backlog_end_bytes: np.ndarray


def replay(
    oracle,
    rates: Sequence[float],
    offered: np.ndarray,
    backlog: Sequence[float],
    *,
    n_prb: int = 50,
    tti0: int = 0,
) -> Replay:
    """Replay one batch: admit, grant, drain, observe, per TTI.

    ``backlog`` is every UE's backlog before the batch (``inf`` for a
    full-buffer UE).  Returns (n_ues, n_tti) matrices and the end
    backlog.
    """
    offered = np.asarray(offered, dtype=float)
    n, n_tti = offered.shape
    r = [float(x) for x in rates]
    q = [float(b) for b in backlog]
    grants = np.zeros((n, n_tti), dtype=np.int64)
    served = np.zeros((n, n_tti), dtype=float)
    for t in range(n_tti):
        avail = [q[i] + float(offered[i, t]) for i in range(n)]
        schedulable = [avail[i] > 0.0 and r[i] > 0.0 for i in range(n)]
        g = oracle.grants(schedulable, r, n_prb, tti0 + t)
        served_t = [min(avail[i], g[i] * r[i]) for i in range(n)]
        for i in range(n):
            q[i] = avail[i] - served_t[i]
            grants[i, t] = g[i]
            served[i, t] = served_t[i]
        oracle.update(served_t)
    return Replay(grants, served, np.array(q, dtype=float))
