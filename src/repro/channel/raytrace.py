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
evaluation funnels through it), so it is written batch-first, and it
traces only the samples that could be blocked, in a way that keeps
results independent of how rays are batched together:

* **per-ray sampling density** — each ray is sampled at ``step``
  meters of its *own* arc length (bucketed to a few canonical sample
  counts so the work stays vectorized), instead of oversampling every
  short ray at the density the longest ray in the batch needs;
* **live columns** — a ray's height is linear along it, so the samples
  below the terrain's global maximum height form one interval of its
  sample columns, found in closed form (:func:`_live_columns`);
* **bundle bound** — consecutive rays that share a receiver (a
  measurement flight seen by one UE, a map row) are cut into bundles
  of up to :data:`_BUNDLE`, and the bundle's middle ray is traced,
  every :data:`_REP_CELLS` cells, against max-filtered ("dilated")
  copies of the heightmap (:meth:`Terrain.dilated`).  At the same
  ``t``, another ray of the bundle is at most ``(1 - t) * spread``
  from it horizontally (``spread`` is the bundle's transmitter spread,
  the receivers coincide), and a sample within half a column of the
  representative's column adds half that column's horizontal length.
  Cell indices move by at most ``floor(offset / cell) + 1`` under that
  offset (truncation and clipping are 1-Lipschitz), so the surface
  under any bundle sample near column ``j`` is at most the dilated
  height at ``j``'s cell for that radius; the lowest bundle height
  near ``j`` comes from the lowest transmitter.  Where that height is
  at or above the dilated surface, no ray of the bundle can be blocked,
  so the representative's first and last other columns bound, in
  ``t``, where any of them can be (:func:`_bundle_bounds`).  The radius
  shrinks toward the shared receiver; a bundle that needs more than
  ``_RADII[-1]`` cells keeps the global ceiling alone.

Each ray traces the intersection of its live columns and its bundle's
bound, and only that: a skipped sample lies above every surface it
could touch, and the blocked count is an integer, so the result is the
full trace's to the bit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

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

#: ``t`` runs over ``[margin, 1 - margin]``: this is its length, as
#: ``np.linspace`` computes it.
_SPAN = (1.0 - _ENDPOINT_MARGIN) - _ENDPOINT_MARGIN

#: Most consecutive rays with one receiver that share one bundle bound.
_BUNDLE = 64

#: Radii, in cells, of the dilated heightmaps the bundle bound reads.  A
#: bundle that needs a wider one keeps the global ceiling: a map row's
#: bundle spans one REM cell per ray, and would only pay for the bound.
_RADII = (1, 2, 4, 8)

#: Fewest rays a bundle needs before its bound is traced: a lone ray
#: (one UAV position seeing many UEs) is cheaper to trace than to bound.
_MIN_BUNDLE = 2

#: Cells between the representative ray's samples.  Its half-column
#: reach stays under a cell, so the radius seldom grows, while the
#: bound pass reads a small share of what the bundle's rays trace.
_REP_CELLS = 2


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
    # ``np.linalg.norm(.., axis=1)``'s sums, in its order, without its
    # reduction over a length-3 axis.
    d = rx - tx
    horiz_sq = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    dist = np.sqrt(horiz_sq + d[:, 2] * d[:, 2])
    horiz = np.sqrt(horiz_sq)
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
    z0: np.ndarray, dz: np.ndarray, hmax: float, n_steps: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-ray ``[lo, hi)`` of the sample columns that can lie below ``hmax``.

    Ray ``i`` samples heights ``z0[i] + t * dz[i]`` at the ``n_steps[i]``
    points ``t = linspace(margin, 1 - margin, n_steps[i])``, so the
    columns below the ceiling are a prefix (ascending ray), a suffix
    (descending) or all or none (level).  The boundary is the
    closed-form crossing of a ceiling raised by a slack of 1e-6 of the
    heights involved, nine orders of magnitude above the rounding of
    ``z0 + t * dz``: the interval covers every column whose computed
    height is below ``hmax`` and exceeds the exact set only when a
    sample lies within the slack of the ceiling.
    """
    n_steps = np.broadcast_to(np.asarray(n_steps, dtype=np.int64), np.shape(z0))
    if np.isnan(hmax):  # no sample is below a NaN ceiling
        none = np.zeros(len(z0), dtype=np.int64)
        return none, none
    ceiling = hmax + 1e-6 * (1.0 + abs(hmax) + np.abs(z0) + np.abs(dz))
    delta = _SPAN / (n_steps - 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = ((ceiling - z0) / dz - _ENDPOINT_MARGIN) / delta
    # Column k is below the ceiling where k < x (ascending) or k > x
    # (descending); the 1e-6 nudges keep a crossing that lands on a
    # column from rounding the wrong way.
    hi = np.where(dz > 0, np.floor(x + 1e-6) + 1, n_steps)
    hi = np.where((dz == 0) & ~(z0 < hmax), 0.0, hi)
    lo = np.where(dz < 0, np.floor(x - 1e-6) + 1, 0.0)
    lo = np.clip(lo, 0, n_steps).astype(np.int64)
    hi = np.clip(hi, 0, n_steps).astype(np.int64)
    return lo, np.maximum(hi, lo)


def _bundle_bounds(
    terrain: Terrain, tx: np.ndarray, rx: np.ndarray, dist: np.ndarray
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], int]:
    """Per-ray ``(t_lo, t_hi, lookups)`` of the bundle bound (module docstring).

    A sample of a ray at ``t`` outside ``[t_lo, t_hi]`` cannot be
    blocked; a ray of no bounded bundle gets ``(-inf, inf)``, a ray of
    a bundle that no sample can block ``(inf, -inf)``.  ``lookups`` is
    the number of dilated-surface reads.  ``(None, None, 0)`` when no
    bundle has :data:`_MIN_BUNDLE` rays.  Only the representative's
    columns where the lowest bundle height can dip below the global
    ceiling are read: elsewhere every ray's live columns already end.
    """
    n_rays = n = len(tx)
    hmax = terrain.max_height
    if n < _MIN_BUNDLE or np.isnan(hmax):
        return None, None, 0
    # Bundles: runs of one receiver, cut every _BUNDLE rays.
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = rx[1:, 0] != rx[:-1, 0]
    new_run[1:] |= rx[1:, 1] != rx[:-1, 1]
    new_run[1:] |= rx[1:, 2] != rx[:-1, 2]
    run_start = np.flatnonzero(new_run)
    run_len = np.diff(np.append(run_start, n))
    long_run = run_len >= _MIN_BUNDLE
    if not long_run.any():
        return None, None, 0
    rays = None
    if not long_run.all():  # bound only the rays of long runs
        rays = np.flatnonzero(np.repeat(long_run, run_len))
        tx, rx, dist = tx[rays], rx[rays], dist[rays]
        n = len(rays)
        run_len = run_len[long_run]
        run_start = np.cumsum(run_len) - run_len
    per_run = -(-run_len // _BUNDLE)
    first_of_run = np.cumsum(per_run) - per_run
    start = np.repeat(run_start - _BUNDLE * first_of_run, per_run)
    start += _BUNDLE * np.arange(len(start))
    size = np.diff(np.append(start, n))
    # The middle ray represents its bundle; ``spread`` is the largest
    # per-axis distance from its transmitter to another's, and ``a``
    # the lowest transmitter height.
    rep = start + size // 2
    txr = tx[rep]
    hi_xyz = np.maximum.reduceat(tx, start, axis=0)
    lo_xyz = np.minimum.reduceat(tx, start, axis=0)
    spread = np.maximum(hi_xyz[:, :2] - txr[:, :2], txr[:, :2] - lo_xyz[:, :2]).max(axis=1)
    a = lo_xyz[:, 2]
    d = rx[start] - txr
    b = rx[start, 2] - a
    # Representative columns every _REP_CELLS cells of its length.
    cell = terrain.grid.cell_size
    n0 = np.ceil(dist[rep] / (_REP_CELLS * cell)).astype(np.int64) + 2
    delta = _SPAN / (n0 - 1)
    half = 0.5 * delta
    slack = 1e-6 * (1.0 + abs(hmax) + np.abs(a) + np.abs(b))
    # A bundle sample within ``half`` of the representative's column at
    # ``t`` is fewer than ``floor(ra - t * rb) + 1`` cells from its cell
    # (the 1e-6 absorbs rounding) and no lower than ``za + t * b``.
    rb = spread / cell
    ra = ((1.0 + half) * spread + half * np.maximum(np.abs(d[:, 0]), np.abs(d[:, 1]))) / cell + 1e-6
    za = a - np.abs(b) * half - slack
    # Window: the columns whose lowest height can dip below the global
    # ceiling, one column wide of the closed-form crossing either side.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = ((hmax - za) / b - _ENDPOINT_MARGIN) / delta
    wlo = np.where(b < 0, np.floor(x) - 1, 0.0)
    whi = np.where(b > 0, np.floor(x) + 2, n0)
    whi = np.where((b == 0) & ~(za < hmax), 0.0, whi)
    wlo = np.clip(wlo, 0, n0).astype(np.int64)
    whi = np.maximum(np.clip(whi, 0, n0).astype(np.int64), wlo)
    # The radius shrinks along t, so the window's first column needs
    # the widest; a bundle that needs more than the cap keeps the
    # global ceiling.
    t0 = _ENDPOINT_MARGIN + wlo * delta
    bounded = (size >= _MIN_BUNDLE) & (np.floor(ra - t0 * rb) + 1 <= _RADII[-1])
    sel = np.flatnonzero(bounded & (whi > wlo))
    counts = whi[sel] - wlo[sel]
    lookups = int(counts.sum())
    first = np.full(len(start), np.inf)
    last = np.full(len(start), -np.inf)
    if lookups:
        seg = np.cumsum(counts) - counts
        bid = np.repeat(sel, counts)
        j = np.arange(lookups) - np.repeat(seg - wlo[sel], counts)
        t = _ENDPOINT_MARGIN + j * delta[bid]
        # Each column reads the row of the smallest cached radius
        # >= floor(ra - t * rb) + 1 at the representative's cell.
        stack = terrain.dilated(_RADII)
        row = np.searchsorted(_RADII, np.arange(1, _RADII[-1] + 1)) * stack.shape[1]
        cells = row.take((ra[bid] - t * rb[bid]).astype(np.int64)) + terrain.flat_cells(
            txr[bid, 0] + t * d[bid, 0], txr[bid, 1] + t * d[bid, 1]
        )
        live = za[bid] + t * b[bid] < stack.take(cells)
        never = np.iinfo(np.int64).max
        first[sel] = np.minimum.reduceat(np.where(live, j, never), seg)
        last[sel] = np.maximum.reduceat(np.where(live, j, -1), seg)
    t_lo = np.repeat(np.where(bounded, _ENDPOINT_MARGIN + (first - 0.5) * delta, -np.inf), size)
    t_hi = np.repeat(np.where(bounded, _ENDPOINT_MARGIN + (last + 0.5) * delta, np.inf), size)
    if rays is not None:
        every_lo, every_hi = np.full(n_rays, -np.inf), np.full(n_rays, np.inf)
        every_lo[rays], every_hi[rays] = t_lo, t_hi
        t_lo, t_hi = every_lo, every_hi
    return t_lo, t_hi, lookups


def _blocked_fractions(
    terrain: Terrain,
    tx: np.ndarray,
    rx: np.ndarray,
    dist: np.ndarray,
    step: float,
) -> np.ndarray:
    """Fraction of each ray's samples that fall below the surface.

    Each ray gets its own bucketed sample count (see
    :func:`_bucket_steps`) and traces only the columns inside both its
    live interval (:func:`_live_columns`) and its bundle's bound
    (:func:`_bundle_bounds`): a column outside either lies above every
    surface it could touch, and the blocked count is an integer, so the
    result is the full trace's to the bit.  Live rays are grouped by
    bucket, sorted widest first and cut into work items of at most
    :data:`_CHUNK_SAMPLES` sample points, each ray reading as many
    columns from its ``lo`` as the item's widest ray needs; an item
    stops where rays get narrower than 7/8 of its width.  Each item
    writes only its own rays' entries, so a batch of at least two
    chunks' worth of samples runs its items in two halves of about
    equal sample count on two threads without moving a bit of the
    result.
    """
    n = tx.shape[0]
    n_steps = _bucket_steps(np.ceil(dist / step))
    t_lo, t_hi, bound = _bundle_bounds(terrain, tx, rx, dist)
    # Rays of a bundle no sample of which can be blocked trace nothing.
    rays = np.arange(n) if t_lo is None else np.flatnonzero(t_lo <= t_hi)
    ns = n_steps[rays]
    lo, hi = _live_columns(tx[rays, 2], rx[rays, 2] - tx[rays, 2], terrain.max_height, ns)
    if t_lo is not None:
        # The bundle's t-interval on each ray's own columns, one column
        # wider on each side than rounding could need.
        inv = (ns - 1) / _SPAN
        blo = np.clip(np.ceil((t_lo[rays] - _ENDPOINT_MARGIN) * inv) - 1, 0, ns)
        bhi = np.clip(np.floor((t_hi[rays] - _ENDPOINT_MARGIN) * inv) + 2, 0, ns)
        lo = np.maximum(lo, blo.astype(np.int64))
        hi = np.minimum(hi, bhi.astype(np.int64))
    # Live rays by bucket, widest first within each.
    live = np.flatnonzero(hi > lo)
    neg = lo[live] - hi[live]
    sort = np.lexsort((neg, ns[live]))
    live, neg = live[sort], neg[sort]
    order, lo, ns = rays[live], lo[live], ns[live]
    edges = np.flatnonzero(np.diff(ns, prepend=-1, append=-1))
    items: List[Tuple[np.ndarray, int, int, int]] = []
    for begin, end in zip(edges[:-1], edges[1:]):
        t = np.linspace(_ENDPOINT_MARGIN, 1.0 - _ENDPOINT_MARGIN, int(ns[begin]))
        start = int(begin)
        while start < end:
            # Rays at least 7/8 as wide as the first, within the budget.
            width = int(-neg[start])
            stop = min(int(end), start + max(1, _CHUNK_SAMPLES // width))
            stop = start + int(np.searchsorted(neg[start:stop], width // 8 - width, side="right"))
            items.append((t, start, stop, width))
            start = stop
    out = np.zeros(n, dtype=float)

    def trace(part: Sequence[Tuple[np.ndarray, int, int, int]]) -> None:
        """Fill ``out`` for the items of ``part``."""
        for t, a, b, width in part:
            # Each ray reads ``width`` columns from its ``lo`` (moved back
            # to fit its bucket).  A column outside the ray's own [lo, hi)
            # cannot be blocked, so reading it changes no count.
            first = np.minimum(lo[a:b], len(t) - width)
            if (first == first[0]).all():
                tc = t[None, first[0] : first[0] + width]
            else:
                tc = t.take(first[:, None] + np.arange(width))
            sel = order[a:b]
            txc, rxc = tx[sel], rx[sel]
            zs = txc[:, None, 2] + tc * (rxc[:, 2] - txc[:, 2])[:, None]
            xs = txc[:, None, 0] + tc * (rxc[:, 0] - txc[:, 0])[:, None]
            ys = txc[:, None, 1] + tc * (rxc[:, 1] - txc[:, 1])[:, None]
            surface = terrain.heights_at_xy(xs, ys)
            out[sel] = np.count_nonzero(zs < surface, axis=1) / len(t)

    sizes = np.cumsum([(b - a) * w for _, a, b, w in items], dtype=np.int64)
    traced = int(sizes[-1]) if items else 0
    if use_helper(traced, 2 * _CHUNK_SAMPLES):
        half = int(np.searchsorted(sizes, traced / 2, side="right"))
        half = min(max(half, 1), len(items) - 1)
        on_two_threads(lambda: trace(items[:half]), lambda: trace(items[half:]))
    else:
        trace(items)
    perf.count("raytrace.samples", int(n_steps.sum()))
    if bound:
        perf.count("raytrace.bound_samples", bound)
    if traced + bound:
        perf.count("raytrace.samples_traced", traced + bound)
    return out
