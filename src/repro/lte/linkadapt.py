"""Outer-loop link adaptation (OLLA).

Real eNodeBs do not trust reported CQI blindly: fading, feedback delay
and UE-vendor calibration make raw CQI optimistic or pessimistic.  The
outer loop nudges a per-UE SNR offset after every HARQ ACK/NACK so the
realized block error rate converges to a target (canonically 10%).
This matters to SkyRAN because the PHY's *effective* throughput during
flights — when the channel whips around (Fig. 7) — is what the epoch
trigger watches.

The implementation is the textbook additive-increase scheme: on NACK
the offset drops by ``step_db``; on ACK it rises by
``step_db * target / (1 - target)``, which makes the equilibrium NACK
rate equal the target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass
class OLLABank:
    """Vectorized OLLA state for a flat UE population.

    Offsets and ACK/NACK tallies live in flat arrays indexed by
    population position, and one :meth:`report_batch` call folds a
    whole population's (or shard's) HARQ outcomes in at once.  The
    update is elementwise — ``offset + up`` on ACK, ``offset - step_db``
    on NACK, then ``np.clip`` to ``[min_offset_db, max_offset_db]`` —
    so it is bit-identical to a per-UE controller driven once per UE,
    and trivially shardable (any partition of the population folds to
    the same state).
    """

    n_ues: int
    target_bler: float = 0.1
    step_db: float = 0.5
    min_offset_db: float = -10.0
    max_offset_db: float = 10.0
    offsets_db: np.ndarray = field(init=False)
    acks: np.ndarray = field(init=False)
    nacks: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.n_ues < 1:
            raise ValueError(f"n_ues must be >= 1, got {self.n_ues}")
        if not 0.0 < self.target_bler < 1.0:
            raise ValueError(f"target_bler must be in (0, 1), got {self.target_bler}")
        if self.step_db <= 0:
            raise ValueError(f"step_db must be positive, got {self.step_db}")
        self.offsets_db = np.zeros(self.n_ues, dtype=float)
        self.acks = np.zeros(self.n_ues, dtype=np.int64)
        self.nacks = np.zeros(self.n_ues, dtype=np.int64)

    def effective_snr_db(self, reported_snr_db: np.ndarray) -> np.ndarray:
        """Reported SNRs plus the learned per-UE corrections."""
        return np.asarray(reported_snr_db, dtype=float) + self.offsets_db

    def report_batch(self, ack: np.ndarray, sel: Optional[np.ndarray] = None) -> None:
        """Fold one HARQ outcome per UE (or per selected UE) in.

        ``sel`` restricts the update to a subset of population indices
        (UEs that were actually scheduled this round, or one shard);
        ``ack`` then aligns with ``sel``.
        """
        a = np.asarray(ack, dtype=bool)
        up = self.step_db * self.target_bler / (1.0 - self.target_bler)
        if sel is None:
            off = self.offsets_db
            self.offsets_db = np.clip(
                np.where(a, off + up, off - self.step_db),
                self.min_offset_db,
                self.max_offset_db,
            )
            self.acks += a
            self.nacks += ~a
        else:
            off = self.offsets_db[sel]
            self.offsets_db[sel] = np.clip(
                np.where(a, off + up, off - self.step_db),
                self.min_offset_db,
                self.max_offset_db,
            )
            self.acks[sel] += a
            self.nacks[sel] += ~a

    def realized_bler(self) -> np.ndarray:
        """Observed per-UE BLER so far (NaN before any feedback)."""
        total = self.acks + self.nacks
        with np.errstate(invalid="ignore"):
            return np.where(total > 0, self.nacks / np.maximum(total, 1), np.nan)
