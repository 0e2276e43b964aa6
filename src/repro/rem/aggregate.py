"""Combining per-UE REMs.

Two reductions matter in SkyRAN: the cell-wise *sum* of per-UE maps
(the aggregate REM that trajectory planning takes gradients of, Step
6.1) and the cell-wise *minimum* (the min-SNR map whose argmax is the
max-min placement, Section 3.4).
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np


def _stack(maps: Sequence[np.ndarray]) -> np.ndarray:
    arrs = [np.asarray(m, dtype=float) for m in maps]
    if not arrs:
        raise ValueError("need at least one map")
    shape = arrs[0].shape
    for a in arrs:
        if a.shape != shape:
            raise ValueError(f"map shapes differ: {a.shape} vs {shape}")
    return np.stack(arrs)


def aggregate_rem_running(
    maps: Iterable[np.ndarray], shape: Tuple[int, int]
) -> np.ndarray:
    """Cell-wise sum of per-UE SNR maps (paper Step 6.1), O(grid) state.

    NaN cells are treated as missing (ignored in the sum); a cell that
    is NaN in *every* map stays NaN.  Consumes the maps one at a time
    instead of stacking them, so a city-scale epoch can aggregate 10⁵
    per-UE maps (shared references under REM-key dedup) without an
    ``(n_ue, ny, nx)`` stack.  Bit-identical to ``np.nansum`` over the
    stacked maps in the same order: numpy's axis-0 nansum reduces the
    (strided) UE axis sequentially in index order, which is exactly
    this running fold.

    Raises :class:`ValueError` on an empty iterable or a map whose
    shape is not ``shape``.
    """
    out = np.zeros(shape, dtype=float)
    all_nan = np.ones(shape, dtype=bool)
    seen = False
    for m in maps:
        m = np.asarray(m, dtype=float)
        if m.shape != shape:
            raise ValueError(f"map shapes differ: {m.shape} vs {shape}")
        seen = True
        nan = np.isnan(m)
        all_nan &= nan
        out += np.where(nan, 0.0, m)
    if not seen:
        raise ValueError("need at least one map")
    out[all_nan] = np.nan
    return out


def min_snr_map(maps: Sequence[np.ndarray]) -> np.ndarray:
    """Cell-wise minimum over per-UE SNR maps (paper Section 3.4).

    NaN in any constituent map makes the cell NaN — placement must not
    pick a cell whose SNR to some UE is unknown.
    """
    stack = _stack(maps)
    return np.min(stack, axis=0)


def argmax_cell(snr_map: np.ndarray):
    """Index ``(iy, ix)`` of the maximum finite cell of a map.

    Raises
    ------
    ValueError
        If the map has no finite cells.
    """
    m = np.asarray(snr_map, dtype=float)
    if not np.isfinite(m).any():
        raise ValueError("map has no finite cells")
    flat = np.where(np.isfinite(m), m, -np.inf)
    iy, ix = np.unravel_index(int(np.argmax(flat)), m.shape)
    return iy, ix
