"""Streaming fold of the controller's Step 8 over REM row-bands.

City-scale populations make the ``(n_ue, ny, nx)`` map stack the
memory bottleneck of placement, but the min-SNR surface behind max–min
placement is a fold: it can consume each REM's interpolated map one
row-band at a time and keep only O(grid) state.  The controller's
uncertainty-discounted Step 8 (:func:`streamed_discounted_max_min_placement`)
folds that way, so no per-UE stack is ever materialized.

Exactness
---------

Each band's IDW values equal the same rows of the full interpolation
(:func:`repro.rem.idw.idw_interpolate_rows`), and so do the bands of the
uncertainty penalty, so the only question is whether the *fold*
commutes with chunking.  ``min`` does, under any chunking: the minimum
of minima is the minimum, and NaN poisons a cell in both paths.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.placement import (
    PlacementResult,
    place_at_max,
    uncertainty_penalty_db,
)
from repro.geo.grid import GridSpec
from repro.rem.idw import idw_interpolate_rows


def shared_by_mask(rems: Iterable) -> Iterator[Tuple[object, dict]]:
    """Each REM with the dict of work shared by its measured mask.

    REMs measured along one flight share a mask, and IDW neighbour
    plans and the uncertainty penalty depend on the mask alone.  A
    mask's dict is dropped after its last REM, so only masks still to
    come hold state.
    """
    rems = list(rems)
    keys = [rem.measured_mask.tobytes() for rem in rems]
    left = Counter(keys)
    shared: Dict[bytes, dict] = {}
    for rem, key in zip(rems, keys):
        yield rem, shared.setdefault(key, {})
        left[key] -= 1
        if not left[key]:
            del shared[key]


def row_bands(ny: int, tile_rows: int) -> List[slice]:
    """Contiguous row slices covering ``range(ny)`` in bands."""
    if tile_rows < 1:
        raise ValueError(f"tile_rows must be >= 1, got {tile_rows}")
    return [slice(r, min(r + tile_rows, ny)) for r in range(0, ny, tile_rows)]


def streamed_discounted_min_map(
    grid: GridSpec,
    rems: Sequence,
    *,
    tile_rows: int = 64,
    penalty_rate_db_per_m: float = 0.0,
    penalty_cap_db: float = float("inf"),
    row_slices: Optional[Sequence[slice]] = None,
    collect_maps: bool = False,
) -> Tuple[np.ndarray, Optional[List[np.ndarray]]]:
    """Uncertainty-discounted min-SNR surface folded REM-by-REM.

    The streamed heart of the controller's Step 8: for each REM the
    IDW map is produced one row-band at a time
    (:func:`repro.rem.idw.idw_interpolate_rows`), discounted by the band of its
    distance-to-nearest-measurement penalty
    (:func:`repro.core.placement.uncertainty_penalty_db`), and folded
    into the running cell-wise minimum — the per-UE map *stack* is
    never materialized, so peak state is O(grid) plus the shared work
    of the live measured masks, regardless of how many REMs stream
    through.  Per REM only the measured values are new work: the IDW
    neighbour plan and the penalty of each band are computed once per
    measured mask (:func:`shared_by_mask`).

    Bit-identical to the materialized path (interpolate each REM
    fully, discount, ``np.min`` over the stack) for **every** tiling:
    interpolation and penalty are independent per cell against each
    REM's global measured set, and a min-fold commutes with chunking
    (NaN poisons a cell in both paths).  A non-positive penalty rate
    or a measurement-free REM skips the discount, exactly as
    :func:`~repro.core.placement.uncertainty_penalty_db` returning None
    leaves a materialized map undiscounted.

    ``rems`` are :class:`repro.rem.map.REM`-shaped objects
    (``measured_values()``, ``measured_mask``, ``prior``).
    ``row_slices`` overrides the default ``tile_rows`` banding (the
    property tests feed ragged tilings).  With ``collect_maps`` the
    *undiscounted* full map of each REM is also assembled band-by-band
    and returned (O(n_rems × grid) — the dedup-bounded epoch result,
    not a per-UE stack).
    """
    bands = list(row_slices) if row_slices is not None else row_bands(grid.ny, tile_rows)
    out = np.full(grid.shape, np.inf)
    maps: Optional[List[np.ndarray]] = [] if collect_maps else None
    seen = False
    for rem, shared in shared_by_mask(rems):
        seen = True
        values = rem.measured_values()
        full = np.empty(grid.shape) if collect_maps else None
        for rows in bands:
            block = idw_interpolate_rows(
                grid, values, rows, fallback=rem.prior, plans=shared
            )
            if collect_maps:
                full[rows] = block
            key = ("penalty", rows.indices(grid.ny))
            if key not in shared:
                shared[key] = uncertainty_penalty_db(
                    grid,
                    rem.measured_mask,
                    penalty_rate_db_per_m,
                    penalty_cap_db,
                    rows=rows,
                )
            penalty = shared[key]
            if penalty is not None:
                block = block - penalty
            np.minimum(out[rows], block, out=out[rows])
        if collect_maps:
            maps.append(full)
    if not seen:
        raise ValueError("need at least one REM")
    return out, maps


def streamed_discounted_max_min_placement(
    grid: GridSpec,
    rems: Sequence,
    altitude: float,
    *,
    tile_rows: int = 64,
    penalty_rate_db_per_m: float = 0.0,
    penalty_cap_db: float = float("inf"),
    row_slices: Optional[Sequence[slice]] = None,
    collect_maps: bool = False,
) -> Tuple[PlacementResult, Optional[List[np.ndarray]]]:
    """Max–min placement over streamed, uncertainty-discounted REMs.

    Folds :func:`streamed_discounted_min_map` and takes its argmax —
    the controller's step 8, equal to the materialized
    ``interpolate → discount → max_min_placement`` sequence with the
    same first-max row-major tie-break.  Returns
    ``(placement, maps)``; ``maps`` is None unless ``collect_maps``.
    """
    mm, maps = streamed_discounted_min_map(
        grid,
        rems,
        tile_rows=tile_rows,
        penalty_rate_db_per_m=penalty_rate_db_per_m,
        penalty_cap_db=penalty_cap_db,
        row_slices=row_slices,
        collect_maps=collect_maps,
    )
    return place_at_max(grid, mm, float(altitude)), maps
