"""From ToF reports to GPS-range tuples.

The eNodeB produces SRS-based ToF estimates at 100 Hz while the flight
controller produces GPS fixes at 50 Hz (paper Section 3.2.1).  The
paper averages the ~2 ToF values that land between consecutive GPS
fixes and emits one ``(gps, mean ToF)`` tuple per fix; this module
implements that aggregation plus an MAD outlier filter for the heavy
-tailed NLOS ranging errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class GpsRange:
    """One fused localization observation.

    Attributes
    ----------
    gps_xyz:
        UAV GPS fix (ENU meters) — noisy, as reported by the flight
        controller.
    range_m:
        Mean SRS-derived range assigned to this fix.  Includes the
        constant processing offset; the solver removes it.
    t_s:
        Timestamp (seconds into the flight).
    """

    gps_xyz: np.ndarray
    range_m: float
    t_s: float


def aggregate_tof_to_gps(
    gps_times_s: Sequence[float],
    gps_xyz: np.ndarray,
    tof_times_s: Sequence[float],
    ranges_m: Sequence[float],
) -> List[GpsRange]:
    """Average the ToF ranges between consecutive GPS fixes (paper 3.2.2).

    Ranges with timestamps in ``[t_i, t_{i+1})`` are averaged and
    assigned to GPS fix ``i``; fixes with no ToF report in their window
    are dropped.  The final fix collects everything at or after its
    timestamp.
    """
    gps_times = np.asarray(gps_times_s, dtype=float)
    gps_xyz = np.asarray(gps_xyz, dtype=float)
    tof_times = np.asarray(tof_times_s, dtype=float)
    ranges = np.asarray(ranges_m, dtype=float)
    if gps_xyz.shape != (len(gps_times), 3):
        raise ValueError(
            f"gps_xyz must be ({len(gps_times)}, 3), got {gps_xyz.shape}"
        )
    if tof_times.shape != ranges.shape:
        raise ValueError("tof_times_s and ranges_m must have the same length")
    if len(gps_times) == 0 or len(tof_times) == 0:
        return []
    if np.any(np.diff(gps_times) < 0):
        raise ValueError("gps_times_s must be non-decreasing")
    # Window assignment in one searchsorted: fix i owns [t_i, t_{i+1}),
    # the last fix owns [t_last, inf), reports before t_0 own nothing.
    fix = np.searchsorted(gps_times, tof_times, side="right") - 1
    in_window = fix >= 0
    fix, kept_ranges = fix[in_window], ranges[in_window]
    if len(fix) == 0:
        return []
    # Stable sort keeps each window's reports in time order, so each
    # window's mean sees its reports in the same operand order as
    # ``ranges[mask].mean()`` over that window's mask.
    order = np.argsort(fix, kind="stable")
    fix, kept_ranges = fix[order], kept_ranges[order]
    uniq, starts = np.unique(fix, return_index=True)
    counts = np.diff(np.append(starts, len(fix)))
    means = np.add.reduceat(kept_ranges, starts) / counts
    # reduceat sums sequentially while .mean() uses SIMD/pairwise
    # accumulation, which rounds differently from three elements up.
    # Recompute those windows with .mean() so every window's value is
    # exactly its ``.mean()``; at the nominal rates (100 Hz
    # ToF into 50 Hz fixes) windows hold ~2 reports, so this loop is
    # almost always empty.
    for j in np.flatnonzero(counts >= 3):
        means[j] = kept_ranges[starts[j] : starts[j] + counts[j]].mean()
    return [
        GpsRange(
            gps_xyz=gps_xyz[i], range_m=float(means[j]), t_s=float(gps_times[i])
        )
        for j, i in enumerate(uniq)
    ]


def mad_filter(
    observations: Sequence[GpsRange],
    k: float = 4.0,
    k_pos: Optional[float] = None,
) -> List[GpsRange]:
    """Drop observations whose *range residual vs. a smooth trend* is extreme.

    Ranging errors in NLOS are heavy-tailed and one-sided: excess
    multipath delay only ever *adds* range.  We detrend the range
    series with a moving median and reject points more than ``k``
    scaled MADs below/above it — with a tighter positive-side cut
    ``k_pos`` (pass None to disable the asymmetry), since a late
    outlier is almost surely a multipath spike while an equally early
    one would be unphysical noise worth keeping symmetric tolerance
    for.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if k_pos is not None and k_pos <= 0:
        raise ValueError(f"k_pos must be positive, got {k_pos}")
    obs = list(observations)
    if len(obs) < 5:
        return obs
    r = np.array([o.range_m for o in obs])
    n = len(r)
    window = min(11, n | 1)  # odd window
    half = window // 2
    # Moving median: full-width interior windows in one vectorized
    # median over a sliding view, shrinking edge windows in a short
    # loop (2 * half iterations regardless of n).
    trend = np.empty(n)
    if n >= window:
        trend[half : n - half] = np.median(
            np.lib.stride_tricks.sliding_window_view(r, window), axis=-1
        )
    for i in range(min(half, n)):
        trend[i] = np.median(r[max(0, i - half) : i + half + 1])
    for i in range(max(half, n - half), n):
        trend[i] = np.median(r[max(0, i - half) : i + half + 1])
    resid = r - trend
    center = np.median(resid)
    mad = np.median(np.abs(resid - center))
    scale = 1.4826 * mad
    if scale <= 1e-9:
        return obs
    upper = (k_pos if k_pos is not None else k) * scale
    keep = (resid - center >= -k * scale) & (resid - center <= upper)
    return [o for o, good in zip(obs, keep) if good]
