"""The composite terrain-aware channel model.

:class:`ChannelModel` is the single oracle for "what does the radio
environment actually look like" in this reproduction.  It produces:

* **mean path loss / SNR** between any UAV position and UE position —
  free-space loss plus an obstruction excess loss proportional to the
  ray length below the terrain surface, a diffraction entry penalty,
  and a frozen correlated shadowing field per UE position;
* **measurement samples** — mean SNR plus small-scale Rician/Rayleigh
  fading and instrument noise, which is what the eNodeB PHY "reports"
  at 100 Hz during flights;
* **full-grid maps** at an altitude — the ground truth REMs of the
  evaluation.

The same object generates both the ground truth and every measurement,
so estimated REMs can in principle converge to the truth — exactly the
premise of a measurement-driven system like SkyRAN.

Because every figure funnels through this oracle, the link path is
batch-first: one chunked kernel (:meth:`ChannelModel._link_chunks`)
traces the rays from a set of UAV positions to whole groups of UEs at
once.  Maps run it band by band over the grid rows, and a measurement
flight (:meth:`ChannelModel.sample_snr_many`) runs it once over the
flight's sample positions for all its UEs.  :meth:`path_loss_maps` runs it
with one band spanning every row and memoizes per-UE maps in an LRU
cache keyed on (altitude, grid, UE position) — so UE mobility only
invalidates the maps of UEs that actually moved — while
:meth:`iter_snr_map_tiles` streams its bands to O(grid) folds.  The
oracle runs in process; parallelism lives one level up, in the
experiment runner's process pool.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.fading import sample_fading_db
from repro.channel.fspl import DEFAULT_FREQ_HZ, fspl_db, fspl_map
from repro.channel.linkbudget import LinkBudget
from repro.channel.raytrace import obstructed_lengths
from repro.channel.shadowing import ShadowingField
from repro.geo.grid import GridSpec
from repro.perf import perf
from repro.terrain.heightmap import Terrain

#: Peak ray budget per UE-axis chunk of the batched map kernel (the
#: ray tracer further chunks by sample count internally).
_MAP_CHUNK_RAYS = 2_000_000

#: Ray budget per UE block of a measurement flight's trace.  The tracer
#: chunks by sample count anyway, so a flight gains nothing from larger
#: blocks; this keeps the tiled endpoint arrays near 6 MB each.
_FLIGHT_CHUNK_RAYS = 262_144


def _lru_put(cache: OrderedDict, key: tuple, value, size: int) -> int:
    """Insert as most recent, evict the oldest past ``size``; returns evictions."""
    cache[key] = value
    cache.move_to_end(key)
    evicted = 0
    while len(cache) > size:
        cache.popitem(last=False)
        evicted += 1
    return evicted


@dataclass
class ChannelModel:
    """Terrain-aware UAV-to-UE channel.

    Parameters
    ----------
    terrain:
        Surface used for ray obstruction tests.
    freq_hz:
        Carrier frequency (2.6 GHz default).
    excess_db_per_m:
        Extra attenuation per meter of obstructed ray (vegetation and
        building interiors average; 1.2 dB/m is in the range reported
        for 2-3 GHz foliage/through-building measurements).
    diffraction_db:
        One-time penalty as soon as a ray is obstructed at all
        (knife-edge diffraction around the obstacle).
    excess_cap_db:
        Upper bound on obstruction excess loss; beyond this, energy
        arrives via reflections that the direct-ray model cannot see,
        so loss stops growing.
    shadowing_sigma_db / shadowing_correlation_m:
        Per-UE log-normal shadowing field parameters.
    common_sigma_db:
        Std of the *common* shadowing field shared by every UE.  Real
        air-to-ground links have a strong UAV-position-dependent
        component (antenna-pattern ripple against the airframe,
        ground clutter under the UAV) that hits all links from that
        position alike — it is why the paper's Fig. 1a average map
        over 20 UEs still shows one sharp sweet-spot region instead
        of averaging flat.  This common structure is exactly what
        measurement-driven REMs can exploit and location-only
        heuristics (Centroid) cannot.
    ray_step_m:
        Sampling interval for the ray tracer.
    link:
        Link budget for path-loss -> SNR conversion.
    seed:
        Base seed for the per-UE shadowing fields.
    map_cache_size:
        Maximum number of per-UE full-grid maps (and FSPL priors) kept
        in the LRU oracle cache, and of shadowing fields kept in the
        LRU field cache.  The map cache is keyed on (altitude, grid, UE
        position), the field cache on UE position, so a moved UE simply
        stops hitting its old entries — those of unmoved UEs stay warm
        across epochs.
    """

    terrain: Terrain
    freq_hz: float = DEFAULT_FREQ_HZ
    excess_db_per_m: float = 1.2
    diffraction_db: float = 8.0
    excess_cap_db: float = 40.0
    shadowing_sigma_db: float = 3.0
    shadowing_correlation_m: float = 20.0
    common_sigma_db: float = 4.5
    ray_step_m: float = 1.0
    link: LinkBudget = field(default_factory=LinkBudget)
    seed: int = 0
    map_cache_size: int = 128
    _shadow_cache: "OrderedDict[tuple, ShadowingField]" = field(
        default_factory=OrderedDict, repr=False
    )
    _map_cache: "OrderedDict[tuple, np.ndarray]" = field(
        default_factory=OrderedDict, repr=False
    )

    # -- shadowing --------------------------------------------------------------

    def _field(
        self, key: tuple, sigma_db: float, seed: int, ue_xyz=None
    ) -> ShadowingField:
        """A shadowing field from the LRU field cache, generated on a miss.

        A field is a pure function of (seed, UE position), so an
        evicted field comes back bit-identical when regenerated.
        """
        cached = self._shadow_cache.get(key)
        if cached is None:
            cached = ShadowingField.generate(
                self.terrain.grid,
                sigma_db=sigma_db,
                correlation_m=self.shadowing_correlation_m,
                seed=seed,
                ue_xyz=ue_xyz,
            )
            _lru_put(self._shadow_cache, key, cached, self.map_cache_size)
        else:
            self._shadow_cache.move_to_end(key)
        return cached

    def _shadowing_for(self, ue_xyz: np.ndarray) -> ShadowingField:
        ue = np.asarray(ue_xyz, dtype=float).reshape(3)
        return self._field(tuple(ue.tolist()), self.shadowing_sigma_db, self.seed, ue)

    def _common_shadowing(self) -> ShadowingField:
        """The UAV-position-dependent field shared by every link."""
        return self._field(("__common__",), self.common_sigma_db, self.seed + 7_777_777)

    # -- mean path loss ----------------------------------------------------------

    def _excess_db(self, obstructed: np.ndarray) -> np.ndarray:
        """Obstruction excess loss (diffraction entry + per-meter, capped)."""
        return np.where(
            obstructed > 0.0,
            np.minimum(
                self.diffraction_db + self.excess_db_per_m * obstructed,
                self.excess_cap_db,
            ),
            0.0,
        )

    def _loss_from_obstructed(
        self, uav: np.ndarray, ues: np.ndarray, obstructed: np.ndarray
    ) -> np.ndarray:
        """Mean path loss of traced links, given their obstructed lengths.

        ``uav`` and ``ues`` are ``(n, 3)`` / ``(1, 3)`` arrays, one of
        them a single position: one UE seen from many UAV positions
        (maps, measurement flights) or one UAV position seeing many UEs
        (serving SNR, fleet stacks).  The one place the loss is
        composed: FSPL + obstruction excess + the UE's own shadowing
        field + the common field, summed in that order.
        """
        d = uav - ues  # norm(d, axis=1), summed in its order
        dist = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2])
        loss = fspl_db(dist, self.freq_hz)
        loss = loss + self._excess_db(obstructed)
        xy = uav[:, :2]
        if self.shadowing_sigma_db > 0:
            loss = loss + np.concatenate(
                [self._shadowing_for(ue).at_many(xy) for ue in ues]
            )
        if self.common_sigma_db > 0:
            loss = loss + self._common_shadowing().at_many(xy)
        return loss

    def path_loss_db(self, uav_xyz: np.ndarray, ue_xyz: np.ndarray) -> np.ndarray:
        """Mean path loss from UAV position(s) to one UE, in dB.

        ``uav_xyz`` may be a single ``(3,)`` point or an ``(n, 3)``
        array; the result matches (scalar float for a single point).
        """
        loss, _ = self.path_loss_and_los(uav_xyz, ue_xyz)
        if np.asarray(uav_xyz).ndim == 1:
            return float(loss[0])
        return loss

    def path_loss_and_los(
        self, uav_xyz: np.ndarray, ue_xyz: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Mean path loss *and* LOS state per UAV position, from one trace.

        The measurement paths need both (loss for the mean SNR, LOS for
        the fading/jitter statistics); a link is LOS when no part of
        its ray runs below the surface.
        """
        uav = np.atleast_2d(np.asarray(uav_xyz, dtype=float))
        ue = np.asarray(ue_xyz, dtype=float).reshape(3)
        _, loss, los = next(self._link_chunks(uav, [ue], 1))
        return loss[0], los[0]

    def snr_db(self, uav_xyz: np.ndarray, ue_xyz: np.ndarray) -> np.ndarray:
        """Mean SNR (dB) from UAV position(s) to one UE."""
        return self.link.snr_db(self.path_loss_db(uav_xyz, ue_xyz))

    # -- batched / cached / streamed map oracle -----------------------------------

    def _map_key(self, kind: str, ue: np.ndarray, altitude: float, g: GridSpec) -> tuple:
        return (
            kind,
            g,
            round(float(altitude), 6),
            (round(float(ue[0]), 6), round(float(ue[1]), 6), round(float(ue[2]), 6)),
        )

    def _map_cache_get(self, key: tuple) -> Optional[np.ndarray]:
        hit = self._map_cache.get(key)
        if hit is None:
            perf.count("oracle.map_cache.miss")
            return None
        self._map_cache.move_to_end(key)
        perf.count("oracle.map_cache.hit")
        return hit

    def _map_cache_put(self, key: tuple, value: np.ndarray) -> None:
        evicted = _lru_put(self._map_cache, key, value, self.map_cache_size)
        if evicted:
            perf.count("oracle.map_cache.evict", evicted)

    def path_loss_maps(
        self,
        ue_positions: Sequence,
        altitude: float,
        grid: Optional[GridSpec] = None,
        *,
        use_cache: bool = True,
    ) -> np.ndarray:
        """Mean path loss maps for many UEs, stacked ``(n_ue, ny, nx)``.

        Per-UE maps are memoized in the LRU oracle cache; the cache
        misses run through the chunked map kernel in one band spanning
        every grid row, so whole groups of UEs share one ray-trace call
        instead of one Python-level map loop per UE.  Cached and
        computed maps are identical.
        """
        g = grid or self.terrain.grid
        ues = [np.asarray(u, dtype=float).reshape(3) for u in ue_positions]
        out = np.empty((len(ues),) + g.shape, dtype=float)
        missing: List[int] = []
        for i, ue in enumerate(ues):
            cached = (
                self._map_cache_get(self._map_key("pl", ue, altitude, g))
                if use_cache
                else None
            )
            if cached is not None:
                out[i] = cached
            else:
                missing.append(i)
        if not missing:
            return out
        with perf.span("oracle.path_loss_maps"):
            tiles = self._path_loss_tiles(
                [ues[i] for i in missing], altitude, g, tile_rows=g.ny
            )
            for ue_sl, _rows, block in tiles:
                for i, m in zip(missing[ue_sl], block):
                    out[i] = m
                    if use_cache:
                        self._map_cache_put(self._map_key("pl", ues[i], altitude, g), m)
        return out

    def snr_maps(
        self,
        ue_positions: Sequence,
        altitude: float,
        grid: Optional[GridSpec] = None,
        *,
        use_cache: bool = True,
    ) -> np.ndarray:
        """Mean SNR maps for many UEs, stacked ``(n_ue, ny, nx)``."""
        return self.link.snr_db(
            self.path_loss_maps(ue_positions, altitude, grid, use_cache=use_cache)
        )

    def iter_snr_map_tiles(
        self,
        ue_positions: Sequence,
        altitude: float,
        grid: Optional[GridSpec] = None,
        *,
        tile_rows: int = 64,
        ue_chunk: Optional[int] = None,
    ):
        """Stream SNR maps as ``(ue_slice, row_slice, block)`` tiles.

        Yields blocks of shape ``(k, rows, nx)`` covering ``tile_rows``
        grid rows for ``k`` UEs at a time, so a consumer folding tiles
        as they arrive holds O(tile) memory instead of the full
        ``(n_ue, ny, nx)`` stack.  Every cell value is **bit-identical**
        to :meth:`snr_maps`: the ray tracer's per-ray sampling does not
        depend on batch composition, and the shadowing/FSPL terms are
        per-point lookups, so restricting the computation to a band of
        rows changes nothing per cell.

        ``ue_chunk`` defaults to the kernel's ray budget, applied per
        band.  Tiles are yielded band-major (all UE chunks of one band
        before the next band) so row-wise folds touch each output row
        over a contiguous stretch.
        """
        if tile_rows < 1:
            raise ValueError(f"tile_rows must be >= 1, got {tile_rows}")
        if ue_chunk is not None and ue_chunk < 1:
            raise ValueError(f"ue_chunk must be >= 1, got {ue_chunk}")
        g = grid or self.terrain.grid
        ues = [np.asarray(u, dtype=float).reshape(3) for u in ue_positions]
        for ue_sl, row_sl, block in self._path_loss_tiles(
            ues, altitude, g, tile_rows=tile_rows, ue_chunk=ue_chunk
        ):
            perf.count("oracle.map_tiles_yielded")
            yield ue_sl, row_sl, self.link.snr_db(block)

    def _path_loss_tiles(
        self,
        ues: List[np.ndarray],
        altitude: float,
        g: GridSpec,
        *,
        tile_rows: int,
        ue_chunk: Optional[int] = None,
    ):
        """The link kernel over map bands, as path-loss tiles.

        For each band of ``tile_rows`` grid rows, the UEs go through
        :meth:`_link_chunks` in chunks along the UE axis sized so each
        ray batch stays within :data:`_MAP_CHUNK_RAYS` (unless
        ``ue_chunk`` is given).
        """
        ny, nx = g.shape
        centers = g.centers_flat()
        alt = float(altitude)
        for r0 in range(0, ny, tile_rows):
            r1 = min(r0 + tile_rows, ny)
            band = centers[r0 * nx : r1 * nx]
            uav = np.column_stack([band, np.full(len(band), alt)])
            chunk = ue_chunk or max(1, _MAP_CHUNK_RAYS // len(band))
            for ue_sl, loss, _ in self._link_chunks(uav, ues, chunk):
                yield ue_sl, slice(r0, r1), loss.reshape(len(loss), r1 - r0, nx)

    def _link_chunks(self, uav: np.ndarray, ues: List[np.ndarray], ue_chunk: int):
        """The chunked many-positions x many-UEs link kernel.

        Every UE of ``ues`` (``(3,)`` positions) is seen from every row
        of the ``(n, 3)`` array ``uav``.  UEs go ``ue_chunk`` at a time
        through one ray-trace call covering every (position, UE) pair of
        the chunk, and each UE's loss is composed by
        :meth:`_loss_from_obstructed`.  Yields ``(ue_slice, loss, los)``
        with the chunk's ``(k, n)`` mean path loss and LOS mask.  A
        ray's trace does not depend on the rest of its batch, so each
        row is bitwise what a one-UE call gives.
        """
        n = len(uav)
        for lo in range(0, len(ues), ue_chunk):
            batch = ues[lo : lo + ue_chunk]
            k = len(batch)
            with perf.span("oracle.link_chunks"):
                tx = np.tile(uav, (k, 1))
                rx = np.repeat(np.stack(batch), n, axis=0)
                obstructed = obstructed_lengths(
                    self.terrain, tx, rx, self.ray_step_m
                ).reshape(k, n)
                loss = np.empty((k, n), dtype=float)
                for j, ue in enumerate(batch):
                    loss[j] = self._loss_from_obstructed(uav, ue[None, :], obstructed[j])
            yield slice(lo, lo + k), loss, obstructed <= 0.0

    def path_loss_to_many(
        self, uav_xyz: np.ndarray, ue_positions: Sequence
    ) -> np.ndarray:
        """Mean path loss (dB) from one UAV position to many UEs.

        The one-Tx-many-Rx kernel under :meth:`snr_to_many` and the
        fleet SINR stacks: every ray runs through one trace, each UE
        reads its own shadowing field, and the result is bit-identical
        to calling :meth:`path_loss_db` once per UE.
        """
        uav = np.asarray(uav_xyz, dtype=float).reshape(1, 3)
        ues = np.asarray(ue_positions, dtype=float).reshape(-1, 3)
        if ues.shape[0] == 0:
            return np.empty(0, dtype=float)
        obstructed = obstructed_lengths(self.terrain, uav, ues, self.ray_step_m)
        return self._loss_from_obstructed(uav, ues, obstructed)

    def snr_to_many(self, uav_xyz: np.ndarray, ue_positions: Sequence) -> np.ndarray:
        """Mean SNR (dB) from one UAV position to many UEs.

        The transpose of :meth:`snr_db` (one UE, many UAV positions),
        and the shape the city-scale MAC needs: the serving SNR of a
        whole population at the chosen placement.  Bit-identical to
        calling :meth:`snr_db` once per UE (see
        :meth:`path_loss_to_many` for the shadowing caveat).
        """
        loss = self.path_loss_to_many(uav_xyz, ue_positions)
        if loss.shape[0] == 0:
            return loss
        return self.link.snr_db(loss)

    # -- FSPL priors --------------------------------------------------------------

    def fspl_prior_map(
        self,
        ue_xyz: np.ndarray,
        altitude: float,
        grid: Optional[GridSpec] = None,
    ) -> np.ndarray:
        """FSPL-only path loss map (the Section 3.5 REM seed), cached.

        Same LRU cache and key structure as the truth maps, so priors
        survive across epochs and only positions that actually changed
        are recomputed.
        """
        g = grid or self.terrain.grid
        ue = np.asarray(ue_xyz, dtype=float).reshape(3)
        key = self._map_key("fspl", ue, altitude, g)
        cached = self._map_cache_get(key)
        if cached is not None:
            return cached.copy()
        with perf.span("oracle.fspl_prior_map"):
            pl = fspl_map(g, ue, float(altitude), self.freq_hz)
        self._map_cache_put(key, pl)
        return pl.copy()

    # -- measurement samples -------------------------------------------------------

    def sample_snr_many(
        self,
        uav_xyz: np.ndarray,
        ue_positions: Sequence,
        rng: np.random.Generator,
        measurement_noise_db: float = 0.5,
    ) -> List[np.ndarray]:
        """Noisy per-sample SNR from UAV positions to each of many UEs.

        What the eNodeB PHY reports along a measurement flight: mean
        SNR + Rician/Rayleigh small-scale fading (K keyed on the LOS
        state of each sample position) + Gaussian instrument noise.
        All links are traced by :meth:`_link_chunks` in UE blocks of
        about :data:`_FLIGHT_CHUNK_RAYS` rays, each trace serving both
        the mean and the LOS state; then each UE, in ``ue_positions``
        order, draws its fading and then its noise from ``rng``.
        Returns one ``(n,)`` array per UE.
        """
        uav = np.atleast_2d(np.asarray(uav_xyz, dtype=float))
        ues = [np.asarray(u, dtype=float).reshape(3) for u in ue_positions]
        chunk = max(1, _FLIGHT_CHUNK_RAYS // max(1, len(uav)))
        out = []
        for _, loss, los in self._link_chunks(uav, ues, chunk):
            for ue_loss, ue_los in zip(loss, los):
                mean = self.link.snr_db(ue_loss)
                fading = sample_fading_db(ue_los, rng)
                noise = rng.normal(0.0, measurement_noise_db, size=mean.shape)
                out.append(mean + fading + noise)
        return out
