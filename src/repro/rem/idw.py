"""Inverse Distance Weighting interpolation.

The paper picks IDW over Gaussian-process regression / Kriging because
it is lightweight and the accuracy difference on radio maps is marginal
(footnote 3, citing Molinari et al.).  Weights are the *square* of the
inverse distance between cell centers, per Section 3.3.3.

Implementation: a KD-tree query for the ``k`` nearest measured cells of
every unmeasured cell, then the weighted mean.  Exact-hit cells keep
their measured value.

All but the weighted mean depends only on *which* cells are measured:
that part is a neighbour plan, which maps sharing a measured mask can
share (``plans``), each then paying only for its own weighted sums.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from repro.geo.grid import GridSpec


def _neighbour_plan(
    grid: GridSpec,
    measured: np.ndarray,
    rows: slice,
    power: float,
    k_neighbors: int,
) -> tuple:
    """``(missing, idx, weights, wsum)`` for one row band.

    ``idx`` holds flat grid indices of each missing cell's neighbours;
    it (and everything after it) is None when the band has nothing to
    estimate or nothing is measured.
    """
    missing = ~measured[rows]
    if not missing.any() or not measured.any():
        return missing, None, None, None
    centers = grid.centers_flat()  # row-major (iy, ix) order
    measured_flat = measured.ravel()
    tree = cKDTree(centers[measured_flat])
    band = centers.reshape(grid.ny, grid.nx, 2)[rows].reshape(-1, 2)
    k = min(k_neighbors, int(measured_flat.sum()))
    dist, idx = tree.query(band[missing.ravel()], k=k)
    dist = np.atleast_2d(dist.T).T if dist.ndim == 1 else dist
    idx = np.atleast_2d(idx.T).T if idx.ndim == 1 else idx

    # Guard exact hits (shouldn't happen for NaN cells, but cheap).
    dist = np.maximum(dist, 1e-9)
    weights = 1.0 / dist**power
    idx = np.flatnonzero(measured_flat)[idx]
    return missing, idx, weights, np.sum(weights, axis=1)


def idw_interpolate_rows(
    grid: GridSpec,
    values: np.ndarray,
    rows: slice,
    power: float = 2.0,
    k_neighbors: int = 12,
    fallback: Optional[np.ndarray] = None,
    plans: Optional[dict] = None,
) -> np.ndarray:
    """Fill the NaN cells of one row band of a map by IDW.

    Estimates are per-cell k-NN queries against the *global* set of
    measured cells, so a band is bit-identical to slicing the full map
    while the work and output drop to O(band) — what lets city-scale
    REM consumers stream interpolated maps tile by tile.

    Parameters
    ----------
    grid:
        Grid the map lies over.
    values:
        ``(ny, nx)`` array; NaN marks unmeasured cells.
    rows:
        Row band to return (``slice(None)``: the whole map).
    power:
        Distance exponent (2 = paper's inverse-square weights).
    k_neighbors:
        Number of nearest measured cells contributing to each estimate.
    fallback:
        Optional full map of prior values (e.g. an FSPL seed) returned
        for the band when no cell is measured.
    plans:
        Optional dict owned by the caller (one fold over a set of
        REMs): the neighbour plan of each (measured mask, band,
        parameters) is built once and reused by every later map with
        the same measured cells.  Bit-identical with or without it.

    Returns
    -------
    ``(n_rows, nx)`` interpolated block for ``rows``.
    """
    if power <= 0:
        raise ValueError(f"power must be positive, got {power}")
    if k_neighbors < 1:
        raise ValueError(f"k_neighbors must be >= 1, got {k_neighbors}")
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape:
        raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")

    measured = ~np.isnan(values)
    args = (grid, measured, rows, power, k_neighbors)
    if plans is None:
        plan = _neighbour_plan(*args)
    else:
        key = (measured.tobytes(), rows.indices(grid.ny), power, k_neighbors)
        plan = plans.get(key)
        if plan is None:
            plan = plans[key] = _neighbour_plan(*args)
    missing, idx, weights, wsum = plan

    out = values[rows].copy()
    if not missing.any():
        return out
    if idx is None:  # nothing measured
        if fallback is not None:
            return np.asarray(fallback, dtype=float)[rows].copy()
        return out
    out[missing] = np.sum(weights * values.ravel()[idx], axis=1) / wsum
    return out


def idw_interpolate(grid: GridSpec, values: np.ndarray, **kwargs) -> np.ndarray:
    """The whole ``(ny, nx)`` map: :func:`idw_interpolate_rows` over all rows."""
    return idw_interpolate_rows(grid, values, slice(None), **kwargs)
