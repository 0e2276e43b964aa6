"""Heightmap terrain representation.

A :class:`Terrain` is a :class:`~repro.geo.grid.GridSpec` plus a 2D
array of surface heights (ground + buildings + canopy) in meters above
the local datum.  It answers the two questions the channel model asks:
"how high is the surface at (x, y)?" and, vectorized, "how high is the
surface under each of these sample points?".  For the ray tracer's
bundle bound it also keeps max-filtered ("dilated") copies of the
surface (:meth:`Terrain.dilated`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.geo.grid import GridSpec


def _widened(h: np.ndarray, g: int, axis: int) -> np.ndarray:
    """``max(h[i - g], h[i], h[i + g])`` along ``axis``, skipping indices off the grid."""
    out = h.copy()
    a = np.moveaxis(h, axis, 0)
    o = np.moveaxis(out, axis, 0)
    np.maximum(o[g:], a[:-g], out=o[g:])
    np.maximum(o[:-g], a[g:], out=o[:-g])
    return out


@dataclass(frozen=True)
class Terrain:
    """A rasterized terrain surface.

    Attributes
    ----------
    grid:
        The grid the heightmap is laid over.
    heights:
        ``(ny, nx)`` float array of surface heights in meters.  The
        surface includes every obstruction a radio ray can hit: ground
        elevation, buildings and tree canopy.
    name:
        Human-readable terrain identifier (e.g. ``"nyc"``).
    """

    grid: GridSpec
    heights: np.ndarray
    name: str = "terrain"

    def __post_init__(self) -> None:
        h = np.ascontiguousarray(np.asarray(self.heights, dtype=float))
        if h.shape != self.grid.shape:
            raise ValueError(
                f"heights shape {h.shape} does not match grid shape {self.grid.shape}"
            )
        object.__setattr__(self, "heights", h)
        # Hot-path caches (not dataclass fields: derived, immutable).
        object.__setattr__(self, "_heights_flat", h.ravel())
        object.__setattr__(self, "_max_height", float(np.max(h)))

    def __getstate__(self) -> dict:
        # The dilations are rebuilt on demand, not shipped with a pickle.
        state = dict(vars(self))
        state.pop("_dilated", None)
        return state

    # -- queries ---------------------------------------------------------------

    def height_at(self, x: float, y: float) -> float:
        """Surface height at a world point (nearest-cell lookup)."""
        ix, iy = self.grid.cell_of(x, y)
        return float(self.heights[iy, ix])

    def heights_at_xy(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Surface heights for broadcastable coordinate arrays.

        ``xs``/``ys`` may have any (matching) shape; the result has the
        same shape.  Used by the vectorized ray tracer where sample
        points come as ``(n_rays, n_steps)`` grids, so this is one of
        the hottest functions in the system: indices are built with a
        single fused flat gather.  Truncation replaces ``floor`` —
        exact here because every negative index truncates into the
        ``[-1, 0]`` gap or beyond and is clipped to cell 0 either way.
        """
        return self._heights_flat.take(self.flat_cells(xs, ys))

    def flat_cells(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Row-major flat index of the cell under each point, clipped to the grid.

        The index :meth:`heights_at_xy` reads; any ``(ny, nx)`` raster
        over the same grid (e.g. :meth:`dilated`) can be gathered with it.
        """
        grid = self.grid
        inv = 1.0 / grid.cell_size
        ix = ((np.asarray(xs, dtype=float) - grid.origin_x) * inv).astype(np.int32)
        iy = ((np.asarray(ys, dtype=float) - grid.origin_y) * inv).astype(np.int32)
        np.clip(ix, 0, grid.nx - 1, out=ix)
        np.clip(iy, 0, grid.ny - 1, out=iy)
        iy *= grid.nx
        iy += ix
        return iy

    def dilated(self, radii: Tuple[int, ...]) -> np.ndarray:
        """Max-filtered copies of the surface, one flat row per radius.

        Row ``i`` holds, for each cell (in :meth:`flat_cells` order), the
        highest surface within ``radii[i]`` cells of it along both axes:
        the max over the ``(2r+1)``-cell square, truncated at the grid
        edge.  Built once per ``radii`` and cached.
        """
        cached: Dict[Tuple[int, ...], np.ndarray] = vars(self).setdefault("_dilated", {})
        out = cached.get(radii)
        if out is None:
            out = np.empty((len(radii), self.heights.size))
            h, done = self.heights, 0
            for row, r in zip(out, radii):
                if r < done:
                    h, done = self.heights, 0
                while done < r:
                    # Radius ``done`` plus offsets {-g, 0, g} per axis is
                    # radius ``done + g`` while g <= done + 1, edges too.
                    g = min(r - done, done + 1)
                    h = _widened(_widened(h, g, 0), g, 1)
                    done += g
                row[:] = h.ravel()
            cached[radii] = out
        return out

    # -- statistics --------------------------------------------------------------

    @property
    def max_height(self) -> float:
        return self._max_height

    def built_fraction(self, threshold: float = 2.0) -> float:
        """Fraction of cells whose surface rises above ``threshold`` meters.

        A crude "terrain complexity" statistic: ~0 for open fields,
        large for urban canyons.  Used in tests and scenario metadata.
        """
        return float(np.mean(self.heights > threshold))

    def roughness(self) -> float:
        """RMS height difference between 4-neighbour cells (meters)."""
        h = self.heights
        dx = np.diff(h, axis=1)
        dy = np.diff(h, axis=0)
        return float(np.sqrt((np.sum(dx**2) + np.sum(dy**2)) / (dx.size + dy.size)))

    # -- editing (returns new Terrain; terrains are immutable) --------------------

    def with_box(
        self,
        x0: float,
        y0: float,
        x1: float,
        y1: float,
        height: float,
    ) -> "Terrain":
        """Return a copy with a box-shaped obstruction stamped in.

        The box's height *replaces* lower surface values inside its
        footprint (a building on top of the ground), it never digs.
        """
        h = self.heights.copy()
        gx, gy = self.grid.centers()
        mask = (gx >= x0) & (gx < x1) & (gy >= y0) & (gy < y1)
        h[mask] = np.maximum(h[mask], height)
        return Terrain(self.grid, h, self.name)

    def coarsened(self, factor: int) -> "Terrain":
        """Downsample the heightmap by taking block maxima.

        Block *maxima* (not means) keep obstructions conservative so
        that a coarse simulation never sees through a building that a
        fine one would block.
        """
        if factor < 1:
            raise ValueError(f"factor must be >= 1, got {factor}")
        if factor == 1:
            return self
        grid = self.grid.coarsen(factor)
        ny, nx = grid.shape
        h = self.heights[: ny * factor, : nx * factor]
        blocks = h.reshape(ny, factor, nx, factor)
        return Terrain(grid, blocks.max(axis=(1, 3)), self.name)

    def free_cells(self, clearance: float = 1.0) -> Tuple[np.ndarray, np.ndarray]:
        """Indices ``(iy, ix)`` of cells whose surface is below ``clearance``.

        Useful for dropping UEs in walkable places (not on rooftops).
        """
        return np.where(self.heights < clearance)
