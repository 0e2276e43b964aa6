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
* **ceiling pruning** — sample columns whose ray height is everywhere
  above the terrain's global maximum height cannot be obstructed and
  are skipped before any surface lookup.  For a UAV well above the
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


def _blocked_fractions(
    terrain: Terrain,
    tx: np.ndarray,
    rx: np.ndarray,
    dist: np.ndarray,
    step: float,
) -> np.ndarray:
    """Fraction of each ray's samples that fall below the surface.

    Rays are grouped into equal-sample-count buckets (per-ray density,
    see :func:`_bucket_steps`) and each bucket is cut into
    memory-bounded chunks with one ``heights_at_xy`` gather per chunk.
    Each (bucket, chunk) work item writes only its own rays' entries,
    and a blocked-sample count is an integer, so a batch of at least two
    chunks' worth of samples runs its items in two halves of about equal
    sample count on two threads without moving a bit of the result.
    The helper reports its sample tallies back, and the caller alone
    counts them.
    """
    n = tx.shape[0]
    hmax = terrain.max_height
    buckets = _bucket_steps(np.ceil(dist / step))
    items: List[Tuple[np.ndarray, np.ndarray]] = []
    for b in np.unique(buckets):
        idx = np.flatnonzero(buckets == b)
        n_steps = int(b)
        t = np.linspace(_ENDPOINT_MARGIN, 1.0 - _ENDPOINT_MARGIN, n_steps)
        chunk = max(1, _CHUNK_SAMPLES // n_steps)
        items.extend((t, idx[lo : lo + chunk]) for lo in range(0, len(idx), chunk))
    out = np.zeros(n, dtype=float)

    def trace(part: Sequence[Tuple[np.ndarray, np.ndarray]]) -> Tuple[int, int]:
        """Fill ``out`` for the items of ``part``; ``(samples, samples_traced)``."""
        samples = traced = 0
        for t, sel in part:
            n_steps = len(t)
            txc, rxc = tx[sel], rx[sel]
            zs = txc[:, None, 2] + t[None, :] * (rxc[:, 2] - txc[:, 2])[:, None]
            # Ceiling pruning: a sample above the terrain's global max
            # height can never be below the surface.
            cols = np.flatnonzero((zs < hmax).any(axis=0))
            samples += len(sel) * n_steps
            if cols.size == 0:
                continue
            tc = t[cols]
            xs = txc[:, None, 0] + tc[None, :] * (rxc[:, 0] - txc[:, 0])[:, None]
            ys = txc[:, None, 1] + tc[None, :] * (rxc[:, 1] - txc[:, 1])[:, None]
            surface = terrain.heights_at_xy(xs, ys)
            zsel = zs[:, cols]
            traced += zsel.size
            out[sel] = np.count_nonzero(zsel < surface, axis=1) / n_steps
        return samples, traced

    sizes = np.cumsum([len(t) * len(sel) for t, sel in items])
    if use_helper(int(sizes[-1]), 2 * _CHUNK_SAMPLES):
        half = int(np.searchsorted(sizes, sizes[-1] / 2, side="right"))
        half = min(max(half, 1), len(items) - 1)
        mine, theirs = on_two_threads(
            lambda: trace(items[:half]), lambda: trace(items[half:])
        )
        samples, traced = mine[0] + theirs[0], mine[1] + theirs[1]
    else:
        samples, traced = trace(items)
    perf.count("raytrace.samples", samples)
    if traced:
        perf.count("raytrace.samples_traced", traced)
    return out
