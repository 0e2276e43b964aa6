"""UE → sky-cell association.

Every epoch the fleet must decide which UAV cell serves each UE.
:func:`hysteresis_pick` consumes the candidate-SINR matrix —
``candidate_db[c, k]`` is UE ``k``'s SINR *if cell c served it*
(interference from the rest of the fleet included) — plus the current
serving assignment, and returns the new assignment: the LTE A3 event
in miniature.  A UE hands over only when some cell beats its serving
cell by more than the hysteresis; this is what keeps boundary UEs from
ping-ponging under SINR jitter.

Handover *counting* lives in the fleet controller (``perf`` counters
``fleet.handover`` / ``fleet.attach``), not here: the pick is a pure
function of its inputs.
"""

from __future__ import annotations

import numpy as np

#: Marker for a UE with no serving cell yet.
UNATTACHED = -1

#: Margin (dB) another cell must beat the serving cell by before an
#: attached UE hands over.
HANDOVER_HYSTERESIS_DB = 3.0


def hysteresis_pick(
    candidate_db: np.ndarray,
    serving: np.ndarray,
    hysteresis_db: float = HANDOVER_HYSTERESIS_DB,
) -> np.ndarray:
    """Strongest-cell association gated by hysteresis.

    Unattached UEs take the argmax unconditionally; attached UEs move
    only when the best candidate beats the serving cell's score by
    *strictly more* than ``hysteresis_db`` (ties keep the serving
    cell, so a zero hysteresis is still ping-pong-free under exactly
    equal scores).
    """
    candidate_db = np.asarray(candidate_db, dtype=float)
    if candidate_db.ndim != 2:
        raise ValueError(f"candidate_db must be (n_cell, n_ue), got {candidate_db.shape}")
    serving = np.asarray(serving, dtype=int)
    n_cell, n_ue = candidate_db.shape
    if serving.shape != (n_ue,):
        raise ValueError(f"serving must have shape ({n_ue},), got {serving.shape}")
    if n_ue and (serving.min() < UNATTACHED or serving.max() >= n_cell):
        raise ValueError("serving indices out of range")
    best = np.argmax(candidate_db, axis=0)
    out = best.copy()
    idx = np.flatnonzero(serving != UNATTACHED)
    if len(idx):
        gain = candidate_db[best[idx], idx] - candidate_db[serving[idx], idx]
        keep = gain <= hysteresis_db
        out[idx[keep]] = serving[idx[keep]]
    return out.astype(int)
