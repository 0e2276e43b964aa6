"""Quantized 2D grid over the operating area.

SkyRAN quantizes its operating area into 1 m x 1 m grid cells because
the UAV GPS is only accurate to 1-5 m (paper, Section 3.3 "Quantizing
Space").  :class:`GridSpec` is the single source of truth for the
world <-> cell-index mapping; every map-like structure (terrain
heightmaps, REMs, gradient maps, min-SNR maps) is a 2D array indexed
``[iy, ix]`` against one :class:`GridSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """A regular grid of square cells covering a rectangular area.

    Parameters
    ----------
    origin_x, origin_y:
        World coordinates (meters) of the south-west corner of cell
        ``(ix=0, iy=0)``.
    cell_size:
        Edge length of each square cell in meters (1.0 in the paper).
    nx, ny:
        Number of cells east-west and north-south.
    """

    origin_x: float
    origin_y: float
    cell_size: float
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if self.cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {self.cell_size}")
        if self.nx <= 0 or self.ny <= 0:
            raise ValueError(f"grid must be non-empty, got nx={self.nx} ny={self.ny}")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_extent(
        cls,
        width: float,
        height: float,
        cell_size: float = 1.0,
        origin_x: float = 0.0,
        origin_y: float = 0.0,
    ) -> "GridSpec":
        """Build a grid covering ``width x height`` meters."""
        nx = max(1, int(round(width / cell_size)))
        ny = max(1, int(round(height / cell_size)))
        return cls(origin_x, origin_y, cell_size, nx, ny)

    # -- basic geometry --------------------------------------------------------

    @property
    def width(self) -> float:
        """East-west extent in meters."""
        return self.nx * self.cell_size

    @property
    def height(self) -> float:
        """North-south extent in meters."""
        return self.ny * self.cell_size

    @property
    def shape(self) -> Tuple[int, int]:
        """Array shape ``(ny, nx)`` for maps laid over this grid."""
        return (self.ny, self.nx)

    @property
    def num_cells(self) -> int:
        return self.nx * self.ny

    @property
    def max_x(self) -> float:
        return self.origin_x + self.width

    @property
    def max_y(self) -> float:
        return self.origin_y + self.height

    # -- world <-> index mapping ----------------------------------------------

    def cell_of(self, x: float, y: float) -> Tuple[int, int]:
        """Cell index ``(ix, iy)`` containing world point ``(x, y)``.

        Points outside the extent are clamped to the border cell so
        that slightly-out-of-bounds GPS fixes still land in a cell.
        """
        ix = int(np.floor((x - self.origin_x) / self.cell_size))
        iy = int(np.floor((y - self.origin_y) / self.cell_size))
        ix = min(max(ix, 0), self.nx - 1)
        iy = min(max(iy, 0), self.ny - 1)
        return ix, iy

    def cells_of(self, xy: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`cell_of` for an ``(n, 2)`` array of points."""
        xy = np.asarray(xy, dtype=float)
        ix = np.floor((xy[:, 0] - self.origin_x) / self.cell_size).astype(int)
        iy = np.floor((xy[:, 1] - self.origin_y) / self.cell_size).astype(int)
        np.clip(ix, 0, self.nx - 1, out=ix)
        np.clip(iy, 0, self.ny - 1, out=iy)
        return ix, iy

    def center_of(self, ix: int, iy: int) -> Tuple[float, float]:
        """World coordinates of the center of cell ``(ix, iy)``."""
        x = self.origin_x + (ix + 0.5) * self.cell_size
        y = self.origin_y + (iy + 0.5) * self.cell_size
        return x, y

    def centers(self) -> Tuple[np.ndarray, np.ndarray]:
        """Meshgrid of all cell-center coordinates, each shaped ``(ny, nx)``."""
        xs = self.origin_x + (np.arange(self.nx) + 0.5) * self.cell_size
        ys = self.origin_y + (np.arange(self.ny) + 0.5) * self.cell_size
        return np.meshgrid(xs, ys)

    def centers_flat(self) -> np.ndarray:
        """All cell centers as an ``(nx * ny, 2)`` array, row-major ``[iy, ix]``."""
        gx, gy = self.centers()
        return np.column_stack([gx.ravel(), gy.ravel()])

    # -- resampling -------------------------------------------------------------

    def coarsen(self, factor: int) -> "GridSpec":
        """A grid over the same extent with cells ``factor`` times larger."""
        if factor < 1:
            raise ValueError(f"factor must be >= 1, got {factor}")
        return GridSpec(
            self.origin_x,
            self.origin_y,
            self.cell_size * factor,
            max(1, self.nx // factor),
            max(1, self.ny // factor),
        )

    def clamp(self, x: float, y: float) -> Tuple[float, float]:
        """Clamp a world point into the grid extent (half-open on the far edge)."""
        eps = 1e-9
        cx = min(max(x, self.origin_x), self.max_x - eps)
        cy = min(max(y, self.origin_y), self.max_y - eps)
        return cx, cy
