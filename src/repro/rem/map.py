"""The REM data structure.

One :class:`REM` holds everything SkyRAN knows about the channel from
the airspace (at the operating altitude) to one UE *position*: running
per-cell measurement averages, an optional model-based prior (the FSPL
seed of Section 3.5), and the interpolated full map.  REMs are keyed by
UE position, not UE identity — that is what makes temporal reuse work
when a UE returns to a previously-mapped spot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.geo.grid import GridSpec
from repro.rem.idw import idw_interpolate


@dataclass
class REM:
    """Radio Environment Map for one UE position at one altitude.

    Attributes
    ----------
    grid:
        Grid of the operating area.
    ue_xyz:
        UE position this map is keyed to.
    altitude:
        Operating altitude the map is valid for.
    prior:
        Optional model-based map (FSPL seed) used before/beyond
        measurements.
    """

    grid: GridSpec
    ue_xyz: np.ndarray
    altitude: float
    prior: Optional[np.ndarray] = None
    _sums: np.ndarray = field(init=False, repr=False)
    _counts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.ue_xyz = np.asarray(self.ue_xyz, dtype=float).reshape(3)
        if self.prior is not None:
            self.prior = np.asarray(self.prior, dtype=float)
            if self.prior.shape != self.grid.shape:
                raise ValueError(
                    f"prior shape {self.prior.shape} != grid shape {self.grid.shape}"
                )
        self._sums = np.zeros(self.grid.shape)
        self._counts = np.zeros(self.grid.shape, dtype=int)

    # -- measurement ingestion ---------------------------------------------------

    def add_measurements(self, xy: np.ndarray, snr_db: np.ndarray) -> None:
        """Fold per-sample SNR readings into their grid cells.

        The SNR of a cell is the average of all readings taken within
        it (paper Step 7, "Measurement Update").
        """
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        snr = np.asarray(snr_db, dtype=float).reshape(-1)
        if len(xy) != len(snr):
            raise ValueError(f"{len(xy)} positions vs {len(snr)} SNR values")
        ix, iy = self.grid.cells_of(xy)
        np.add.at(self._sums, (iy, ix), snr)
        np.add.at(self._counts, (iy, ix), 1)

    @property
    def measured_mask(self) -> np.ndarray:
        """Boolean map of cells with at least one measurement."""
        return self._counts > 0

    @property
    def n_measured_cells(self) -> int:
        return int(np.count_nonzero(self._counts))

    def measured_values(self) -> np.ndarray:
        """Per-cell measurement averages; NaN where unmeasured."""
        with np.errstate(invalid="ignore", divide="ignore"):
            vals = self._sums / self._counts
        vals[self._counts == 0] = np.nan
        return vals

    # -- full-map estimation ----------------------------------------------------

    def interpolated(self, plans: Optional[dict] = None) -> np.ndarray:
        """Full SNR map: measured cells + IDW interpolation (+ prior fallback).

        The paper's IDW (inverse-square weights, 12 neighbours;
        :func:`repro.rem.idw.idw_interpolate`).  ``plans`` shares IDW
        neighbour plans across maps with the same measured cells.
        """
        return idw_interpolate(
            self.grid, self.measured_values(), fallback=self.prior, plans=plans
        )

    # -- lifecycle ---------------------------------------------------------------

    def rekeyed(self, new_ue_xyz: np.ndarray) -> "REM":
        """A copy keyed to a nearby UE position (reuse, Section 3.5).

        Measurement state is shared-by-copy: the new map starts from
        everything learned for the old position.
        """
        clone = REM(self.grid, np.asarray(new_ue_xyz, dtype=float), self.altitude, self.prior)
        clone._sums = self._sums.copy()
        clone._counts = self._counts.copy()
        return clone

    def distance_to_position(self, xyz: np.ndarray) -> float:
        """Ground-plane distance from this map's key position to ``xyz``."""
        p = np.asarray(xyz, dtype=float)
        return float(np.hypot(p[0] - self.ue_xyz[0], p[1] - self.ue_xyz[1]))
