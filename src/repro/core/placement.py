"""UAV placement (paper Sections 3.3.1 and 3.4).

Two decisions: the operating *altitude* (first epoch: descend from the
FAA ceiling above the UE centroid while path loss keeps dropping) and
the horizontal *position* (argmax of the min-SNR map across per-UE
REMs — the max-min placement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.geo.grid import GridSpec
from repro.geo.points import Point3D
from repro.rem.aggregate import argmax_cell, min_snr_map


@dataclass(frozen=True)
class PlacementResult:
    """Chosen operating position and its predicted worst-UE SNR.

    Attributes
    ----------
    position:
        Chosen 3D operating position.
    min_snr_db:
        Value of the min-SNR map at the chosen cell (the predicted
        SNR of the worst-served UE).
    cell:
        Grid index ``(iy, ix)`` of the chosen cell.
    """

    position: Point3D
    min_snr_db: float
    cell: tuple


def max_min_placement(
    grid: GridSpec,
    rem_maps: Sequence[np.ndarray],
    altitude: float,
) -> PlacementResult:
    """Max-min SNR placement over per-UE REMs (Section 3.4).

    Builds the min-SNR map (cell-wise minimum across UEs) and places
    the UAV at its maximum — guaranteeing the best possible worst-case
    QoS given the current REM estimates.
    """
    if len(rem_maps) == 0:
        raise ValueError("need at least one REM map")
    return place_at_max(grid, min_snr_map(rem_maps), altitude)


def place_at_max(
    grid: GridSpec, min_map: np.ndarray, altitude: float
) -> PlacementResult:
    """The max-min decision on a folded min-SNR map: its argmax cell.

    Shared by :func:`max_min_placement` and the streamed placement
    folds in :mod:`repro.rem.streaming`, so every path breaks ties the
    same way (first maximum in row-major order, non-finite cells
    skipped).
    """
    iy, ix = argmax_cell(min_map)
    x, y = grid.center_of(ix, iy)
    return PlacementResult(
        position=Point3D(x, y, altitude),
        min_snr_db=float(min_map[iy, ix]),
        cell=(iy, ix),
    )


def uncertainty_penalty_db(
    grid: GridSpec,
    measured_mask: np.ndarray,
    rate_db_per_m: float,
    cap_db: float,
    rows: slice = slice(None),
) -> Optional[np.ndarray]:
    """Distance-to-nearest-measurement placement discount (capped).

    An argmax over estimated maps selects for optimistic estimation
    errors, and unmeasured cells carry the largest ones; discounting
    each cell by ``rate * distance to the nearest measured cell``
    (capped) keeps max-min placement honest.  Returns None when the
    rate is non-positive or nothing is measured — the caller serves
    the map undiscounted, exactly as before the discount existed.

    ``rows`` restricts the output to one row-band of the grid.  The
    nearest-measured-cell query is independent per cell against the
    global measured set, so a band is bit-identical to slicing the
    full penalty — the property the streamed placement fold relies on.
    """
    if rate_db_per_m <= 0:
        return None
    mask = np.asarray(measured_mask, dtype=bool).ravel()
    if not mask.any():
        return None
    from scipy.spatial import cKDTree

    centers = grid.centers_flat()
    tree = cKDTree(centers[mask])
    band = centers.reshape(grid.ny, grid.nx, 2)[rows]
    d, _ = tree.query(band.reshape(-1, 2))
    return np.minimum(rate_db_per_m * d, cap_db).reshape(band.shape[:2])


def find_optimal_altitude(
    path_loss_at: Callable[[float], float],
    max_altitude_m: float = 120.0,
    min_altitude_m: float = 20.0,
    step_m: float = 10.0,
    patience: int = 3,
) -> float:
    """Descend from the ceiling while path loss keeps decreasing.

    ``path_loss_at(altitude)`` is a probe callback (in the real system,
    the UAV measures mean path loss to the UEs while descending above
    their centroid).  There is an interior optimum (Fig. 8): going up
    costs free-space loss, going too low magnifies terrain shadowing.
    The descent tracks the running minimum and stops only after
    ``patience`` consecutive non-improving steps, so a single noisy
    probe cannot end the search prematurely; it returns the altitude
    of the best loss seen.
    """
    if not 0 < min_altitude_m <= max_altitude_m:
        raise ValueError("need 0 < min_altitude_m <= max_altitude_m")
    if step_m <= 0:
        raise ValueError("step_m must be positive")
    if patience < 1:
        raise ValueError(f"patience must be >= 1, got {patience}")
    best_alt = max_altitude_m
    best_loss = path_loss_at(max_altitude_m)
    misses = 0
    alt = max_altitude_m - step_m
    while alt >= min_altitude_m - 1e-9:
        loss = path_loss_at(alt)
        if loss < best_loss:
            best_loss = loss
            best_alt = alt
            misses = 0
        else:
            misses += 1
            if misses >= patience:
                break  # loss has been rising: the minimum is behind us
        alt -= step_m
    return best_alt
