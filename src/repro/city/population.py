"""Struct-of-array UE population state.

At city scale, per-UE Python objects (``repro.lte.ue.UE``, dict-keyed
OLLA state, one ``TrafficSource`` per UE) dominate memory and kill
vectorization.  :class:`UEPopulation` replaces them on the hot paths
with flat float64/int64 blocks — positions, REM keys, OLLA offsets,
queue backlogs, traffic parameters, RNG spawn keys — indexed by
population position (UE id == index), processed shard-by-shard so no
kernel ever holds O(population × TTI) state.

The REM key quantizes each UE's position to a coarse REM cell.  UEs in
the same cell are indistinguishable to the map oracle (maps are
evaluated at cell centers), so placement work scales with the number
of *unique occupied cells* — which saturates at the key-grid size —
rather than with the population.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from repro.geo.grid import GridSpec
from repro.lte.ue import UE_ANTENNA_HEIGHT_M
from repro.terrain.heightmap import Terrain

#: Spawn-key tag isolating population placement draws from the traffic
#: and fault streams that share the run seed.
CITY_SPAWN_KEY = 0x51EE

#: Default UEs per shard: big enough to amortize per-shard Python
#: overhead, small enough that a shard's (UEs x TTIs) MAC matrices
#: (grants, capacities, served bytes) stay tens of megabytes.
DEFAULT_SHARD_UES = 2048


def shard_size(override: int | None = None) -> int:
    """Shard width from ``override``, else :data:`DEFAULT_SHARD_UES`."""
    if override is None:
        return DEFAULT_SHARD_UES
    if override < 1:
        raise ValueError(f"shard size must be >= 1, got {override}")
    return int(override)


@dataclass
class UEPopulation:
    """Flat per-UE state blocks, index-aligned across all arrays.

    Attributes
    ----------
    ue_ids:
        ``(n,)`` int64, strictly ascending; doubles as each UE's
        traffic-RNG spawn key so streams never depend on shard layout.
    xyz:
        ``(n, 3)`` float64 antenna positions.
    rem_key:
        ``(n,)`` int64 flat index into the REM key grid (see
        :meth:`sample`); UEs sharing a key share a map-oracle cell.
    olla_offset_db:
        ``(n,)`` float64 learned OLLA corrections.
    backlog_bytes:
        ``(n,)`` float64 RLC backlog carried across MAC batches
        (``inf`` for full-buffer UEs).
    full_buffer:
        ``(n,)`` bool, the infinite-backlog idealization per UE.
    cbr_rate_mbps:
        ``(n,)`` float64 CBR rate for finite-traffic UEs (0 where
        ``full_buffer``).
    """

    ue_ids: np.ndarray
    xyz: np.ndarray
    rem_key: np.ndarray
    olla_offset_db: np.ndarray
    backlog_bytes: np.ndarray
    full_buffer: np.ndarray
    cbr_rate_mbps: np.ndarray
    rem_key_grid: GridSpec

    def __post_init__(self) -> None:
        n = len(self.ue_ids)
        if n == 0:
            raise ValueError("UEPopulation needs at least one UE")
        for name in (
            "ue_ids",
            "rem_key",
            "olla_offset_db",
            "backlog_bytes",
            "full_buffer",
            "cbr_rate_mbps",
        ):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValueError(f"{name} shape {arr.shape} != ({n},)")
        if self.xyz.shape != (n, 3):
            raise ValueError(f"xyz shape {self.xyz.shape} != ({n}, 3)")
        if np.any(np.diff(self.ue_ids) <= 0):
            raise ValueError("ue_ids must be strictly ascending")

    @property
    def n_ues(self) -> int:
        return len(self.ue_ids)

    @classmethod
    def sample(
        cls,
        terrain: Terrain,
        n: int,
        seed: int = 0,
        *,
        full_buffer_fraction: float = 0.5,
        cbr_rate_mbps: float = 2.0,
        clearance_m: float = 1.0,
        rem_cell_m: float = 32.0,
    ) -> "UEPopulation":
        """Drop ``n`` UEs on walkable terrain cells (with replacement).

        Positions land on cell centers of the terrain grid, at local
        ground height plus the standard antenna height.  A
        ``full_buffer_fraction`` share of the population (chosen by an
        independent per-run draw, not by index order) is the
        infinitely-backlogged idealization; the rest offer CBR traffic
        at ``cbr_rate_mbps``.  ``rem_cell_m`` sets the REM key grid
        pitch — coarser keys mean fewer unique map cells.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if not 0.0 <= full_buffer_fraction <= 1.0:
            raise ValueError(
                f"full_buffer_fraction must be in [0, 1], got {full_buffer_fraction}"
            )
        if rem_cell_m <= 0:
            raise ValueError(f"rem_cell_m must be positive, got {rem_cell_m}")
        g = terrain.grid
        free_iy, free_ix = terrain.free_cells(clearance_m)
        if len(free_iy) == 0:
            raise ValueError("terrain has no free cells at the given clearance")
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(CITY_SPAWN_KEY,))
        )
        pick = rng.integers(0, len(free_iy), size=n)
        iy = free_iy[pick]
        ix = free_ix[pick]
        x = g.origin_x + (ix + 0.5) * g.cell_size
        y = g.origin_y + (iy + 0.5) * g.cell_size
        z = terrain.heights_at_xy(x, y) + UE_ANTENNA_HEIGHT_M
        xyz = np.column_stack([x, y, z])

        key_grid = GridSpec.from_extent(
            g.width, g.height, rem_cell_m, g.origin_x, g.origin_y
        )
        kx, ky = key_grid.cells_of(xyz[:, :2])
        rem_key = (ky.astype(np.int64) * key_grid.nx + kx).astype(np.int64)

        fb = rng.random(n) < full_buffer_fraction
        return cls(
            ue_ids=np.arange(n, dtype=np.int64),
            xyz=xyz,
            rem_key=rem_key,
            olla_offset_db=np.zeros(n, dtype=float),
            backlog_bytes=np.where(fb, np.inf, 0.0),
            full_buffer=fb,
            cbr_rate_mbps=np.where(fb, 0.0, float(cbr_rate_mbps)),
            rem_key_grid=key_grid,
        )

    def iter_shards(self, shard_ues: int | None = None) -> Iterator[slice]:
        """Yield contiguous population slices of at most ``shard_ues``."""
        width = shard_size(shard_ues)
        for lo in range(0, self.n_ues, width):
            yield slice(lo, min(lo + width, self.n_ues))

    def unique_rem_cells(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Deduplicate the population to its occupied REM key cells.

        Returns ``(keys, first, representatives, inverse)``: the sorted
        unique key values, the population index of the first member
        holding each key, that member's position (the key's
        representative UE), and the per-UE index into ``keys``.
        Serving the representatives covers every UE in map-oracle
        resolution while the work saturates at the key grid size
        instead of growing with the population.
        """
        keys, first, inverse = np.unique(
            self.rem_key, return_index=True, return_inverse=True
        )
        return keys, first, self.xyz[first], inverse
