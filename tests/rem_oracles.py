"""Materialized oracles for the streamed REM folds.

``src/repro`` computes Step 6.1's aggregate and Step 8's placement as
folds that never stack the per-UE maps
(:func:`repro.rem.aggregate.aggregate_rem_running`,
:func:`repro.rem.streaming.streamed_discounted_max_min_placement`).
The functions here build the whole ``(n_rem, ny, nx)`` stack and reduce
it in one numpy call, the way the paper states each step:

* :func:`aggregate_rem` — ``np.nansum`` over the stack, NaN where every
  map is NaN;
* :func:`materialized_discounted_min_map` — interpolate each REM in
  full (IDW), subtract its uncertainty penalty, ``np.min`` over the
  stack;
* :func:`materialized_step8` — the first finite maximum of that
  surface in row-major order.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.placement import PlacementResult, uncertainty_penalty_db
from repro.geo.points import Point3D


def aggregate_rem(maps: Sequence[np.ndarray]) -> np.ndarray:
    """Cell-wise sum of per-UE maps over the stacked array."""
    stack = np.stack([np.asarray(m, dtype=float) for m in maps])
    with np.errstate(invalid="ignore"):
        out = np.nansum(stack, axis=0)
    out[np.isnan(stack).all(axis=0)] = np.nan
    return out


def materialized_discounted_min_map(
    grid,
    rems,
    penalty_rate_db_per_m: float,
    penalty_cap_db: float,
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """``np.min`` over the stack of fully interpolated, discounted maps.

    Returns ``(min_map, maps)`` with the *undiscounted* full map of
    each REM, like
    :func:`~repro.rem.streaming.streamed_discounted_min_map` with
    ``collect_maps=True``.
    """
    maps = [rem.interpolated() for rem in rems]
    discounted = []
    for rem, m in zip(rems, maps):
        penalty = uncertainty_penalty_db(
            grid, rem.measured_mask, penalty_rate_db_per_m, penalty_cap_db
        )
        discounted.append(m if penalty is None else m - penalty)
    return np.min(np.stack(discounted), axis=0), maps


def materialized_step8(
    grid,
    rems,
    altitude: float,
    penalty_rate_db_per_m: float,
    penalty_cap_db: float,
) -> Tuple[PlacementResult, List[np.ndarray]]:
    """Max–min placement over fully materialized, discounted REM maps.

    Returns ``(placement, maps)`` with the *undiscounted* full map of
    each REM, like
    :func:`~repro.rem.streaming.streamed_discounted_max_min_placement`
    with ``collect_maps=True``.
    """
    min_map, maps = materialized_discounted_min_map(
        grid, rems, penalty_rate_db_per_m, penalty_cap_db
    )
    flat = np.where(np.isfinite(min_map), min_map, -np.inf)
    iy, ix = np.unravel_index(int(np.argmax(flat)), min_map.shape)
    x, y = grid.center_of(ix, iy)
    placement = PlacementResult(
        position=Point3D(x, y, float(altitude)),
        min_snr_db=float(min_map[iy, ix]),
        cell=(iy, ix),
    )
    return placement, maps
