"""Trajectory information gain (paper Step 6.4).

Each UE carries the set of measurement trajectories flown for it in
previous epochs.  The information a *candidate* trajectory offers a UE
is "the shortest distance between the new trajectory and all the
historical trajectories in the set assigned to the UE" — i.e. how far
the candidate strays from everything already explored for that UE.  A
UE with no history gets a large fixed gain ``i_max``.  The planner
then maximizes mean-gain / length over candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.geo.paths import polyline_to_polyline_distance
from repro.trajectory.base import Trajectory

#: Default gain assigned to a UE with no trajectory history.  The
#: paper only requires it to be "a large fixed value"; 1000 m is an
#: order of magnitude beyond typical trajectory separations.
DEFAULT_I_MAX = 1000.0

#: Resampling pitch of the polyline distance behind the gain.
SPACING_M = 10.0

#: Largest (position, key) block one within-R pass holds at once.
_CHUNK_PAIRS = 1 << 20


def information_gain(
    candidate: Trajectory,
    history: Sequence[Trajectory],
    i_max: float = DEFAULT_I_MAX,
    spacing_m: float = SPACING_M,
) -> float:
    """Gain a candidate trajectory offers one UE.

    ``min`` over historical trajectories of the polyline distance:
    a candidate that retraces *any* previous flight is worthless, no
    matter how far it is from the others.
    """
    if i_max <= 0:
        raise ValueError(f"i_max must be positive, got {i_max}")
    if not history:
        return i_max
    gain = min(
        polyline_to_polyline_distance(candidate.waypoints, h.waypoints, spacing_m)
        for h in history
    )
    return float(min(gain, i_max))


def _pos_key(ue_xyz: np.ndarray, quantum_m: float = 1.0):
    p = np.asarray(ue_xyz, dtype=float)
    return (round(p[0] / quantum_m), round(p[1] / quantum_m))


@dataclass
class TrajectoryHistory:
    """Per-UE-position sets of flown measurement trajectories.

    Keyed by quantized UE position (like REMs, Section 3.5), so a UE
    returning to a known spot inherits the exploration history of that
    spot and the planner does not re-probe it from scratch.

    ``quantum_m`` is the key quantization pitch; stored keys are in
    key-index units and must be scaled back to meters before any
    comparison against a raw position.
    """

    i_max: float = DEFAULT_I_MAX
    reuse_radius_m: float = 10.0
    quantum_m: float = 1.0
    _store: Dict[tuple, List[Trajectory]] = field(default_factory=dict)

    def record(self, ue_xyz: np.ndarray, trajectory: Trajectory) -> None:
        """Log a flown trajectory against a UE position."""
        key = _pos_key(ue_xyz, self.quantum_m)
        self._store.setdefault(key, []).append(trajectory)

    def _within_r(self, positions: np.ndarray) -> np.ndarray:
        """``(n, n_keys)``: which stored keys lie within R of each position.

        One vectorized pass over the keys (insertion order, scaled back
        to meters) with the scalar ``hypot(...) <= reuse_radius_m``
        test, in position chunks of at most ``_CHUNK_PAIRS`` pairs.
        """
        keys = np.array(list(self._store), dtype=float).reshape(-1, 2) * self.quantum_m
        step = max(1, _CHUNK_PAIRS // max(len(keys), 1))
        chunks = (positions[i : i + step] for i in range(0, len(positions), step))
        return np.concatenate(
            [
                np.hypot(p[:, :1] - keys[:, 0], p[:, 1:2] - keys[:, 1]) <= self.reuse_radius_m
                for p in chunks
            ]
        )

    def trajectories_for(self, ue_xyz: np.ndarray) -> List[Trajectory]:
        """History for a UE position, including nearby (within R) keys."""
        near = self._within_r(np.asarray(ue_xyz, dtype=float).reshape(1, -1))[0]
        return [t for hit, trajs in zip(near, self._store.values()) if hit for t in trajs]

    def mean_gain(
        self, candidate: Trajectory, ue_positions: Sequence[np.ndarray]
    ) -> float:
        """Average gain over the epoch's UEs (the paper's numerator).

        Bit-identical to averaging :func:`information_gain` over each
        UE's :meth:`trajectories_for`, but the candidate's distance to
        each distinct tour object is computed once, however many keys
        recorded it, and each UE takes the min over the tours it sees.
        """
        if len(ue_positions) == 0:
            raise ValueError("need at least one UE position")
        if self.i_max <= 0:
            raise ValueError(f"i_max must be positive, got {self.i_max}")
        tours = {id(t): t for trajs in self._store.values() for t in trajs}
        col = {tid: i for i, tid in enumerate(tours)}
        incidence = np.zeros((len(self._store), len(tours)), dtype=bool)
        for j, trajs in enumerate(self._store.values()):
            incidence[j, [col[id(t)] for t in trajs]] = True
        positions = np.asarray(ue_positions, dtype=float)[:, :2]
        seen = self._within_r(positions) @ incidence
        dist = np.full(len(tours), np.inf)
        for i, t in enumerate(tours.values()):
            if seen[:, i].any():
                dist[i] = polyline_to_polyline_distance(
                    candidate.waypoints, t.waypoints, SPACING_M
                )
        gains = np.where(seen, dist, np.inf).min(axis=1, initial=np.inf)
        return float(np.mean(np.minimum(gains, self.i_max)))

    def __len__(self) -> int:
        return sum(len(v) for v in self._store.values())
