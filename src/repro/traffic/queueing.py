"""RLC-style per-UE downlink queues.

One :class:`QueueBank` holds the backlog state for every attached UE
as flat float64 arrays (UE order = sorted UE ids), which is what lets
the TTI kernel in :mod:`repro.traffic.simulate` evolve all queues with
elementwise numpy.  The bank persists across TTI batches — backlog
carries over, cumulative counters accumulate — so an epoch's serving
time can be simulated in chunks.

Full-buffer UEs are represented with an **infinite** backlog, which
makes every queue update degenerate correctly without special-casing:
``inf + arrivals = inf``, ``min(inf, capacity) = capacity`` (served),
``inf - served = inf`` (backlog), and a finite buffer admits nothing
on top of an infinite backlog (nothing is offered either).

A finite ``limit_bytes`` models a bounded RLC buffer with tail drop:
arrivals beyond the free room are discarded and counted, per UE.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np


@dataclass
class QueueBank:
    """Backlog and byte accounting for a fixed set of UEs.

    Attributes
    ----------
    ue_ids:
        UE identities, ascending; index ``i`` everywhere in the
        traffic subsystem means ``ue_ids[i]``.
    limit_bytes:
        Tail-drop buffer bound per UE; ``0`` means unbounded.
    full_buffer:
        Seed queues with an infinite backlog (the legacy assumption)
        instead of empty.  Either one bool for the whole bank or a
        per-UE bool array, so one bank can mix full-buffer UEs with
        finite-traffic UEs.  After construction the attribute is the
        scalar ``bool`` "every UE is full-buffer" (preserving the
        truthiness the all-or-nothing callers test) and the per-UE
        view lives in ``full_buffer_mask``.
    """

    ue_ids: Tuple[int, ...]
    limit_bytes: float = 0.0
    full_buffer: bool = False
    full_buffer_mask: np.ndarray = field(init=False)
    backlog_bytes: np.ndarray = field(init=False)
    arrived_bytes: np.ndarray = field(init=False)
    dropped_bytes: np.ndarray = field(init=False)
    served_bytes: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        ids = tuple(int(u) for u in self.ue_ids)
        if len(ids) == 0:
            raise ValueError("QueueBank needs at least one UE")
        if list(ids) != sorted(set(ids)):
            raise ValueError(f"ue_ids must be strictly ascending, got {ids}")
        if self.limit_bytes < 0:
            raise ValueError(f"limit_bytes must be >= 0, got {self.limit_bytes}")
        self.ue_ids = ids
        n = len(ids)
        mask = np.broadcast_to(
            np.asarray(self.full_buffer, dtype=bool), (n,)
        ).copy()
        self.full_buffer_mask = mask
        self.full_buffer = bool(mask.all())
        self.backlog_bytes = np.where(mask, np.inf, 0.0)
        self.arrived_bytes = np.zeros(n, dtype=float)
        self.dropped_bytes = np.zeros(n, dtype=float)
        self.served_bytes = np.zeros(n, dtype=float)

    @property
    def n_ues(self) -> int:
        return len(self.ue_ids)

    def account_batch(
        self,
        arrived: np.ndarray,
        dropped: np.ndarray,
        served: np.ndarray,
        backlog: np.ndarray,
    ) -> None:
        """Fold one TTI batch's (n_ues, n_tti) matrices into the totals."""
        self.arrived_bytes += arrived.sum(axis=1)
        self.dropped_bytes += dropped.sum(axis=1)
        self.served_bytes += served.sum(axis=1)
        self.backlog_bytes = np.asarray(backlog, dtype=float).copy()

    def total_backlog_bytes(self) -> float:
        """Aggregate backlog right now (inf under full buffer)."""
        return float(self.backlog_bytes.sum())
