"""Vectorized ray/terrain intersection.

For each direct ray from a transmitter to a receiver we sample points
along the ray and compare the ray height against the terrain surface.
The total length of the obstructed portion drives the excess (beyond
free-space) attenuation, mirroring the paper's LiDAR-driven model:
"We use the LiDAR data to determine the portion of each ray that is
obstructed by terrain features, and the portion that experiences only
free space attenuation" (Section 5.1).

The kernel is the single hottest code path of the reproduction (every
ground-truth map, every measurement sample and every placement
evaluation funnels through it), so it is written batch-first with two
structural optimizations that keep results independent of how rays are
batched together:

* **per-ray sampling density** — each ray is sampled at ``step``
  meters of its *own* arc length (bucketed to a few canonical sample
  counts so the work stays vectorized), instead of oversampling every
  short ray at the density the longest ray in the batch needs;
* **live columns** — a ray's height is linear along it, so the samples
  below the terrain's global maximum height form one interval of its
  sample columns, found in closed form (:func:`_live_columns`).  Only
  those columns are built and looked up.  For a UAV well above the
  clutter this drops the majority of samples, and it is exact: a
  skipped sample can never satisfy ``z < surface``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro._rowblocks import on_two_threads, use_helper
from repro.perf import perf
from repro.terrain.heightmap import Terrain

#: Default arc-length between ray samples, in meters.  Half the 1 m
#: grid pitch comfortably catches single-cell obstacles.
DEFAULT_STEP_M = 1.0

#: Endpoints are excluded from the obstruction test by this margin so a
#: ray never counts the terrain cell the UE itself stands on.
_ENDPOINT_MARGIN = 0.02

#: Peak sample-point budget per vectorized chunk.  Small enough that
#: the working set (ray coords, surface gather, comparison masks) stays
#: cache-resident — empirically ~2x faster than multi-megabyte chunks —
#: while large enough to amortize the Python-level loop.
_CHUNK_SAMPLES = 262_144

#: Sample counts are rounded up to a multiple of this (above 32) so
#: rays group into a handful of equal-width batches.
_BUCKET_QUANTUM = 32


def _bucket_steps(n_steps: np.ndarray) -> np.ndarray:
    """Round per-ray sample counts up to a canonical bucket size.

    Small counts go to the next power of two, larger ones to the next
    multiple of :data:`_BUCKET_QUANTUM`.  The bucket of a ray depends
    only on that ray's own length, so results never depend on which
    other rays happen to share the batch.
    """
    n = np.maximum(np.asarray(n_steps, dtype=np.int64), 2)
    small = n <= _BUCKET_QUANTUM
    out = np.empty_like(n)
    out[small] = 2 ** np.ceil(np.log2(n[small])).astype(np.int64)
    big = ~small
    q = _BUCKET_QUANTUM
    out[big] = ((n[big] + q - 1) // q) * q
    return out


def _as_ray_batch(tx_xyz: np.ndarray, rx_xyz: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Validate/broadcast endpoints into matching ``(n, 3)`` arrays."""
    tx = np.atleast_2d(np.asarray(tx_xyz, dtype=float))
    rx = np.atleast_2d(np.asarray(rx_xyz, dtype=float))
    if tx.shape[0] == 1 and rx.shape[0] > 1:
        tx = np.broadcast_to(tx, rx.shape)
    if rx.shape[0] == 1 and tx.shape[0] > 1:
        rx = np.broadcast_to(rx, tx.shape)
    if tx.shape != rx.shape:
        raise ValueError(f"tx shape {tx.shape} incompatible with rx shape {rx.shape}")
    return tx, rx


def obstructed_lengths(
    terrain: Terrain,
    tx_xyz: np.ndarray,
    rx_xyz: np.ndarray,
    step: float = DEFAULT_STEP_M,
) -> np.ndarray:
    """Obstructed path length for each Tx->Rx ray, in meters.

    The returned length is the *horizontally projected* run of the ray
    below the terrain surface.  This captures the elevation-angle
    dependence every air-to-ground measurement campaign reports
    (Al-Hourani et al.): a steep ray from a UAV overhead clips only
    the crowns/eaves around the UE and suffers little excess loss,
    while a grazing ray ploughs through long stretches of clutter.
    Using the 3D obstructed length instead would charge a vertical ray
    through a tree canopy the full canopy height — making a UE under a
    tree unservable even from straight above, which contradicts both
    the physics and the paper's testbed (its forest UE was served).

    Parameters
    ----------
    terrain:
        The surface to test against.
    tx_xyz:
        ``(n, 3)`` array (or a single ``(3,)`` point broadcast to n) of
        transmitter positions - typically candidate UAV cells.
    rx_xyz:
        ``(n, 3)`` array or single ``(3,)`` receiver position(s) -
        typically the UE.
    step:
        Sampling interval along the ray.

    Returns
    -------
    ``(n,)`` array: horizontally-projected meters of each ray that
    pass below the terrain surface.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    tx, rx = _as_ray_batch(tx_xyz, rx_xyz)

    n = tx.shape[0]
    dist = np.linalg.norm(rx - tx, axis=1)
    horiz = np.linalg.norm((rx - tx)[:, :2], axis=1)
    if n == 0 or float(dist.max()) == 0.0:
        return np.zeros(n)

    perf.count("raytrace.calls")
    perf.count("raytrace.rays", n)
    with perf.span("raytrace"):
        frac = _blocked_fractions(terrain, tx, rx, dist, step)
    # Near-vertical rays keep a floor of 15% of the slant length so a
    # blocked overhead ray (directly through a crown or roof) still
    # pays a realistic one-obstacle penetration loss instead of zero.
    effective = np.maximum(horiz, 0.15 * dist)
    return frac * effective * (1.0 - 2 * _ENDPOINT_MARGIN)


def _live_columns(
    z0: np.ndarray, dz: np.ndarray, hmax: float, t: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-ray ``[lo, hi)`` of the sample columns that can lie below ``hmax``.

    Ray ``i`` samples heights ``z0[i] + t * dz[i]``, so the columns
    below the ceiling are a prefix (ascending ray), a suffix
    (descending) or all or none (level).  The boundary is the
    closed-form crossing of a ceiling raised by a slack of 1e-6 of the
    heights involved, nine orders of magnitude above the rounding of
    ``z0 + t * dz``: the interval covers every column whose computed
    height is below ``hmax`` and exceeds the exact set only when a
    sample lies within the slack of the ceiling.
    """
    n_steps = len(t)
    if np.isnan(hmax):  # no sample is below a NaN ceiling
        none = np.zeros(len(z0), dtype=np.int64)
        return none, none
    ceiling = hmax + 1e-6 * (1.0 + abs(hmax) + np.abs(z0) + np.abs(dz))
    delta = (t[-1] - t[0]) / (n_steps - 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = ((ceiling - z0) / dz - t[0]) / delta
    # Column k is below the ceiling where k < x (ascending) or k > x
    # (descending); the 1e-6 nudges keep a crossing that lands on a
    # column from rounding the wrong way.
    hi = np.where(dz > 0, np.floor(x + 1e-6) + 1, n_steps)
    hi = np.where((dz == 0) & ~(z0 < hmax), 0.0, hi)
    lo = np.where(dz < 0, np.floor(x - 1e-6) + 1, 0.0)
    lo = np.clip(lo, 0, n_steps).astype(np.int64)
    hi = np.clip(hi, 0, n_steps).astype(np.int64)
    return lo, np.maximum(hi, lo)


def _blocked_fractions(
    terrain: Terrain,
    tx: np.ndarray,
    rx: np.ndarray,
    dist: np.ndarray,
    step: float,
) -> np.ndarray:
    """Fraction of each ray's samples that fall below the surface.

    Rays are grouped into equal-sample-count buckets (per-ray density,
    see :func:`_bucket_steps`).  Each ray traces only its live columns
    (:func:`_live_columns`): a column outside them has ``z >=
    max_height >= surface`` and cannot count, and the blocked count is
    an integer, so the result is the full trace's to the bit.  A
    bucket's rays are sorted by their live interval and cut into work
    items of at most :data:`_CHUNK_SAMPLES` live sample points, each
    with one ``heights_at_xy`` gather over the union of its rays'
    intervals.  Each item writes only its own rays' entries, so a batch
    of at least two chunks' worth of live samples runs its items in two
    halves of about equal live sample count on two threads without
    moving a bit of the result.
    """
    n = tx.shape[0]
    hmax = terrain.max_height
    buckets = _bucket_steps(np.ceil(dist / step))
    dz_all = rx[:, 2] - tx[:, 2]
    items: List[Tuple[np.ndarray, np.ndarray]] = []
    for b in np.unique(buckets):
        idx = np.flatnonzero(buckets == b)
        n_steps = int(b)
        t = np.linspace(_ENDPOINT_MARGIN, 1.0 - _ENDPOINT_MARGIN, n_steps)
        lo, hi = _live_columns(tx[idx, 2], dz_all[idx], hmax, t)
        live = np.flatnonzero(hi > lo)
        live = live[np.lexsort((hi[live], lo[live]))]
        idx, lo, hi = idx[live], lo[live], hi[live]
        start = 0
        while start < len(idx):
            # Greedy cut: the longest run of rays whose count times the
            # width of their intervals' union fits the chunk budget (at
            # least one ray).
            c0 = int(lo[start])
            stop = min(len(idx), start + max(1, _CHUNK_SAMPLES // int(hi[start] - c0)))
            width = np.maximum.accumulate(hi[start:stop]) - c0
            cost = width * np.arange(1, stop - start + 1)
            k = max(1, int(np.searchsorted(cost, _CHUNK_SAMPLES, side="right")))
            items.append((t[c0 : c0 + int(width[k - 1])], idx[start : start + k]))
            start += k
    out = np.zeros(n, dtype=float)

    def trace(part: Sequence[Tuple[np.ndarray, np.ndarray]]) -> None:
        """Fill ``out`` for the items of ``part``."""
        for tc, sel in part:
            n_steps = int(buckets[sel[0]])
            txc, rxc = tx[sel], rx[sel]
            zs = txc[:, None, 2] + tc[None, :] * (rxc[:, 2] - txc[:, 2])[:, None]
            xs = txc[:, None, 0] + tc[None, :] * (rxc[:, 0] - txc[:, 0])[:, None]
            ys = txc[:, None, 1] + tc[None, :] * (rxc[:, 1] - txc[:, 1])[:, None]
            surface = terrain.heights_at_xy(xs, ys)
            out[sel] = np.count_nonzero(zs < surface, axis=1) / n_steps

    sizes = np.cumsum([len(tc) * len(sel) for tc, sel in items], dtype=np.int64)
    traced = int(sizes[-1]) if items else 0
    if use_helper(traced, 2 * _CHUNK_SAMPLES):
        half = int(np.searchsorted(sizes, traced / 2, side="right"))
        half = min(max(half, 1), len(items) - 1)
        on_two_threads(lambda: trace(items[:half]), lambda: trace(items[half:]))
    else:
        trace(items)
    perf.count("raytrace.samples", int(buckets.sum()))
    if traced:
        perf.count("raytrace.samples_traced", traced)
    return out
