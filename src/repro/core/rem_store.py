"""Temporal REM aggregation and reuse (paper Section 3.5).

REMs are keyed by UE *position*.  When a UE (re)appears within the
reuse radius ``R`` of a stored key, it inherits that REM — including
all its measurements — instead of starting from scratch; only truly
novel positions get a fresh FSPL-seeded map.  This is what makes
SkyRAN's probing overhead shrink across epochs under mobility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.geo.grid import GridSpec
from repro.perf import perf
from repro.rem.map import REM


def _key_of(xyz: np.ndarray) -> Tuple[float, float]:
    p = np.asarray(xyz, dtype=float)
    return (round(float(p[0]), 1), round(float(p[1]), 1))


@dataclass
class REMStore:
    """Position-keyed REM storage with radius-R reuse.

    Lookup is served from a uniform bucket grid over the stored keys
    (bucket width ``reuse_radius_m`` plus the 0.1 m key-rounding slack)
    so a radius-R query scans only the 3x3 bucket neighbourhood instead
    of every stored REM — O(1) expected per lookup where the linear
    scan made city-scale epochs O(n_store) per UE.  Candidates are
    visited in first-insertion order with the same ``d <= best_d``
    rule, so results (including equal-distance tie-breaks, which go to
    the latest-inserted key) are exactly those of a full linear scan.

    Attributes
    ----------
    grid:
        Grid all stored REMs share.
    reuse_radius_m:
        ``R``: maximum key distance for reuse (10 m default).
    """

    grid: GridSpec
    reuse_radius_m: float = 10.0
    _store: Dict[Tuple[float, float], REM] = field(default_factory=dict)
    #: Reuse/seed counters for overhead accounting in benches.
    hits: int = 0
    misses: int = 0
    _buckets: Dict[Tuple[int, int], List[Tuple[float, float]]] = field(
        default_factory=dict, repr=False
    )
    _order: Dict[Tuple[float, float], int] = field(default_factory=dict, repr=False)
    _seq: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        for key in self._store:
            self._index(key)

    # -- bucket index ------------------------------------------------------------

    @property
    def _bucket_width(self) -> float:
        # Keys are 0.1 m roundings of positions (<= ~0.071 m off), so a
        # REM within R of the query has its key within R + 0.2 per axis.
        return self.reuse_radius_m + 0.2

    def _bucket_of(self, x: float, y: float) -> Tuple[int, int]:
        w = self._bucket_width
        return (int(np.floor(x / w)), int(np.floor(y / w)))

    def _index(self, key: Tuple[float, float]) -> None:
        # First insertion fixes both bucket membership and scan order;
        # re-committing an existing key keeps its position, exactly
        # like dict insertion order under reassignment.
        if key not in self._order:
            self._order[key] = self._seq
            self._seq += 1
            self._buckets.setdefault(self._bucket_of(*key), []).append(key)

    def _put(self, key: Tuple[float, float], rem: REM) -> None:
        self._store[key] = rem
        self._index(key)

    def lookup(self, ue_xyz: np.ndarray) -> Optional[REM]:
        """Closest stored REM within the reuse radius, or None."""
        p = np.asarray(ue_xyz, dtype=float)
        bx, by = self._bucket_of(float(p[0]), float(p[1]))
        candidates: List[Tuple[float, float]] = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                candidates.extend(self._buckets.get((bx + dx, by + dy), ()))
        candidates.sort(key=self._order.__getitem__)
        perf.count("rem_store.lookup_candidates", len(candidates))
        best, best_d = None, self.reuse_radius_m
        for key in candidates:
            rem = self._store[key]
            d = rem.distance_to_position(p)
            if d <= best_d:
                best, best_d = rem, d
        return best

    def get_or_create(
        self,
        ue_xyz: np.ndarray,
        altitude: float,
        prior_fn: Callable[[np.ndarray], np.ndarray],
    ) -> REM:
        """REM for a UE position: reuse within R, else FSPL-seed.

        ``prior_fn(ue_xyz)`` builds the model-based seed map for a
        novel position (Section 3.5: "SkyRAN initializes a new REM
        using a free-space path-loss model").
        """
        found = self.lookup(ue_xyz)
        if found is not None:
            self.hits += 1
            if not np.allclose(found.ue_xyz, ue_xyz):
                rem = found.rekeyed(ue_xyz)
                self._put(_key_of(ue_xyz), rem)
                return rem
            return found
        self.misses += 1
        rem = REM(
            self.grid,
            np.asarray(ue_xyz, dtype=float),
            altitude,
            prior=prior_fn(np.asarray(ue_xyz, dtype=float)),
        )
        self._put(_key_of(ue_xyz), rem)
        return rem

    def commit(self, rem: REM) -> None:
        """(Re)store a REM under its key position."""
        self._put(_key_of(rem.ue_xyz), rem)

    def __len__(self) -> int:
        return len(self._store)
