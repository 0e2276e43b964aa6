"""Streaming folds over map tiles.

City-scale populations make the ``(n_ue, ny, nx)`` stack the memory
bottleneck of every map consumer, but the aggregations the system
actually needs — the min-SNR surface behind max–min placement, coverage
counts, the aggregate REM — are all folds: they can consume the tiles
of :meth:`~repro.channel.model.ChannelModel.iter_snr_map_tiles` as they
arrive and keep only O(grid) state.

Exactness
---------

Tiles carry a ``(ue_slice, row_slice, block)`` triple and each cell
value is bit-identical to the materialized stack (the tile generator's
contract), so the only question is whether the *fold* commutes with
chunking:

* ``min`` and integer counting are exact under any chunking — the
  minimum of minima is the minimum, and both numpy's axis-0 reduce and
  the chunked fold visit UEs in ascending index order;
* float **sums** are exact only when each tile spans the full UE axis
  (reassociating a float sum changes rounding), which is why
  :func:`streamed_aggregate_rem` documents that caveat explicitly.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.placement import PlacementResult, uncertainty_penalty_db
from repro.geo.grid import GridSpec
from repro.geo.points import Point3D
from repro.perf import perf
from repro.rem.aggregate import argmax_cell

#: A streamed map tile: which UEs, which grid rows, and the
#: ``(n_ue_chunk, n_rows, nx)`` block of values.
Tile = Tuple[slice, slice, np.ndarray]


def streamed_min_snr_map(tiles: Iterable[Tile], shape: Tuple[int, int]) -> np.ndarray:
    """Cell-wise minimum over streamed per-UE map tiles.

    Bit-identical to ``np.min(stack, axis=0)`` over the materialized
    stack: min folds exactly under chunking, NaN poisons a cell in both
    paths, and rows no tile covers stay ``+inf`` (a coverage bug the
    caller's tile source should make impossible).
    """
    out = np.full(shape, np.inf)
    seen = False
    for _ue_sl, row_sl, block in tiles:
        seen = True
        np.minimum(out[row_sl], block.min(axis=0), out=out[row_sl])
    if not seen:
        raise ValueError("need at least one tile (empty UE population?)")
    return out


def streamed_coverage_counts(
    tiles: Iterable[Tile], shape: Tuple[int, int], threshold_db: float
) -> np.ndarray:
    """Per-cell count of UEs whose map meets ``threshold_db``.

    Integer accumulation, exact under any tiling; equals
    ``(stack >= threshold_db).sum(axis=0)`` on the materialized stack.
    """
    out = np.zeros(shape, dtype=np.int64)
    for _ue_sl, row_sl, block in tiles:
        out[row_sl] += (block >= threshold_db).sum(axis=0)
    return out


def streamed_aggregate_rem(tiles: Iterable[Tile], shape: Tuple[int, int]) -> np.ndarray:
    """Cell-wise NaN-ignoring sum over streamed per-UE map tiles.

    Matches :func:`repro.rem.aggregate.aggregate_rem` bit-for-bit when
    each tile spans the **full UE axis** (``ue_chunk >= n_ue``); with a
    smaller UE chunk the float sum is reassociated, so agreement is
    only up to rounding — prefer full-UE tiles when exactness matters.
    """
    out = np.zeros(shape, dtype=float)
    all_nan = np.ones(shape, dtype=bool)
    seen = False
    for _ue_sl, row_sl, block in tiles:
        seen = True
        nan = np.isnan(block)
        all_nan[row_sl] &= nan.all(axis=0)
        with np.errstate(invalid="ignore"):
            out[row_sl] += np.nansum(block, axis=0)
    if not seen:
        raise ValueError("need at least one tile (empty UE population?)")
    out[all_nan] = np.nan
    return out


def streamed_max_min_placement(
    grid: GridSpec,
    tiles: Iterable[Tile],
    altitude: float,
) -> PlacementResult:
    """Max–min placement folded from streamed tiles (Section 3.4).

    The streamed counterpart of
    :func:`repro.core.placement.max_min_placement`: the min-SNR surface
    is folded tile-by-tile (O(grid) peak memory, never O(n_ue * grid))
    and its argmax — same first-max row-major tie-break — is the
    chosen cell.
    """
    mm = streamed_min_snr_map(tiles, grid.shape)
    iy, ix = argmax_cell(mm)
    x, y = grid.center_of(ix, iy)
    return PlacementResult(
        position=Point3D(x, y, float(altitude)),
        min_snr_db=float(mm[iy, ix]),
        cell=(iy, ix),
    )


def streamed_interference_max_min_placement(
    grid: GridSpec,
    tiles: Iterable[Tile],
    altitude: float,
    penalty_db: np.ndarray,
) -> PlacementResult:
    """Interference-aware max–min placement folded from SNR tiles.

    Joint fleet placement re-scores a cell's candidate SNR map by each
    UE's rise-over-thermal from the *other* cells of the fleet
    (:func:`repro.channel.interference.interference_penalty_db`):
    ``SINR ≈ SNR - penalty``, a per-UE constant over the candidate
    axis.  Because the penalty is constant per UE, subtracting it
    inside the fold commutes with any tiling — the result is
    bit-identical to materializing ``stack - penalty[:, None, None]``
    and reducing, so the PR 6 tile machinery (O(grid) peak memory) is
    reused unchanged.  ``penalty_db`` must align with the tile
    source's UE axis; all-zero penalties recover
    :func:`streamed_max_min_placement` exactly.
    """
    penalty_db = np.asarray(penalty_db, dtype=float)

    def penalized() -> Iterable[Tile]:
        for ue_sl, row_sl, block in tiles:
            yield ue_sl, row_sl, block - penalty_db[ue_sl, None, None]

    mm = streamed_min_snr_map(penalized(), grid.shape)
    iy, ix = argmax_cell(mm)
    x, y = grid.center_of(ix, iy)
    return PlacementResult(
        position=Point3D(x, y, float(altitude)),
        min_snr_db=float(mm[iy, ix]),
        cell=(iy, ix),
    )


def interpolate_tile(
    interpolator,
    grid: GridSpec,
    values: np.ndarray,
    rows: slice,
    measured_mask: Optional[np.ndarray] = None,
    fallback: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One row-band of an interpolated map, via the cheapest exact path.

    Interpolators that implement ``interpolate_tile`` (IDW and kriging
    do — their estimates are per-cell queries/solves, so a band costs
    O(band)) are asked for just the band; anything else falls back to
    interpolating the full map and slicing, which is exact by
    construction but silently rematerializes — the fallback bumps the
    ``rem.tile_fallback`` perf counter so a streamed pipeline that is
    secretly O(grid)-per-band shows up in BENCH artifacts.
    """
    tile = getattr(interpolator, "interpolate_tile", None)
    if tile is not None:
        return tile(grid, values, rows, measured_mask=measured_mask, fallback=fallback)
    perf.count("rem.tile_fallback")
    full = interpolator.interpolate(
        grid, values, measured_mask=measured_mask, fallback=fallback
    )
    return full[rows].copy()


def row_bands(ny: int, tile_rows: int) -> List[slice]:
    """Contiguous row slices covering ``range(ny)`` in bands."""
    if tile_rows < 1:
        raise ValueError(f"tile_rows must be >= 1, got {tile_rows}")
    return [slice(r, min(r + tile_rows, ny)) for r in range(0, ny, tile_rows)]


def streamed_discounted_min_map(
    grid: GridSpec,
    rems: Sequence,
    interpolator,
    *,
    tile_rows: int = 64,
    penalty_rate_db_per_m: float = 0.0,
    penalty_cap_db: float = float("inf"),
    row_slices: Optional[Sequence[slice]] = None,
    collect_maps: bool = False,
) -> Tuple[np.ndarray, Optional[List[np.ndarray]]]:
    """Uncertainty-discounted min-SNR surface folded REM-by-REM.

    The streamed heart of the controller's Step 8: for each REM the
    interpolated map is produced one row-band at a time
    (:func:`interpolate_tile`), discounted by the band of its
    distance-to-nearest-measurement penalty
    (:func:`repro.core.placement.uncertainty_penalty_db`), and folded
    into the running cell-wise minimum — the per-UE map *stack* is
    never materialized, so peak state is O(grid) + O(band) regardless
    of how many REMs stream through.

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
    for rem in rems:
        seen = True
        values = rem.measured_values()
        full = np.empty(grid.shape) if collect_maps else None
        for rows in bands:
            block = interpolate_tile(
                interpolator, grid, values, rows, fallback=rem.prior
            )
            if collect_maps:
                full[rows] = block
            penalty = uncertainty_penalty_db(
                grid,
                rem.measured_mask,
                penalty_rate_db_per_m,
                penalty_cap_db,
                rows=rows,
            )
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
    interpolator,
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
        interpolator,
        tile_rows=tile_rows,
        penalty_rate_db_per_m=penalty_rate_db_per_m,
        penalty_cap_db=penalty_cap_db,
        row_slices=row_slices,
        collect_maps=collect_maps,
    )
    iy, ix = argmax_cell(mm)
    x, y = grid.center_of(ix, iy)
    placement = PlacementResult(
        position=Point3D(x, y, float(altitude)),
        min_snr_db=float(mm[iy, ix]),
        cell=(iy, ix),
    )
    return placement, maps
