"""RLC-style per-UE downlink queues.

One :class:`QueueBank` holds the backlog of every attached UE as a
flat float64 array (UE order = sorted UE ids), which is what lets the
TTI kernel in :mod:`repro.traffic.simulate` evolve all queues with
elementwise numpy.  The bank persists across TTI batches — backlog
carries over — so an epoch's serving time can be simulated in chunks.
Queues are unbounded: every offered byte is admitted.

Full-buffer UEs are represented with an **infinite** backlog, which
makes every queue update degenerate correctly without special-casing:
``inf + arrivals = inf``, ``min(inf, capacity) = capacity`` (served)
and ``inf - served = inf`` (backlog).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np


@dataclass
class QueueBank:
    """Backlog of a fixed set of UEs.

    Attributes
    ----------
    ue_ids:
        UE identities, ascending; index ``i`` everywhere in the
        traffic subsystem means ``ue_ids[i]``.
    full_buffer:
        Seed every queue with an infinite backlog (the legacy
        assumption) instead of empty.
    """

    ue_ids: Tuple[int, ...]
    full_buffer: bool = False
    backlog_bytes: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        ids = tuple(int(u) for u in self.ue_ids)
        if len(ids) == 0:
            raise ValueError("QueueBank needs at least one UE")
        if list(ids) != sorted(set(ids)):
            raise ValueError(f"ue_ids must be strictly ascending, got {ids}")
        self.ue_ids = ids
        self.backlog_bytes = np.full(len(ids), np.inf if self.full_buffer else 0.0)

    @property
    def n_ues(self) -> int:
        return len(self.ue_ids)

    def total_backlog_bytes(self) -> float:
        """Aggregate backlog right now (inf under full buffer)."""
        return float(self.backlog_bytes.sum())
