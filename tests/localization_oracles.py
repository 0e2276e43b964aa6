"""One-item-at-a-time oracles for the batched localization kernels.

Paper §3.2 Steps 1-4 run in ``src/repro`` as batched kernels only.
Each function here is the plain loop a kernel must reproduce bit for
bit, kept beside the tests that hold the kernel to it:

* :func:`apply_channel` — one SRS symbol through the channel
  (:func:`repro.lte.srs.apply_channel_batch`);
* :func:`estimate_delay_and_quality` — the scalar Eq. 1-3 estimator
  with its peak quality (:func:`repro.lte.tof.estimate_delays_batch`,
  :func:`repro.lte.tof.correlation_quality_batch`);
* :func:`collect_gps_ranges` — the per-symbol flight loop
  (:func:`repro.flight.sampler.collect_gps_ranges`);
* :func:`aggregate_tof_to_gps` and :func:`mad_filter` — the mask-per-fix
  and per-point moving-median loops
  (:mod:`repro.localization.ranging`);
* :func:`joint_residuals` — the per-UE residual loop of the joint solve
  (:func:`repro.localization.joint._joint_model`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.flight.sampler import (
    DEFAULT_PROCESSING_OFFSET_M,
    SRS_RATE_HZ,
    TOF_JITTER_LOS_S,
    TOF_JITTER_NLOS_S,
    UPLINK_BUDGET,
    _positions_at,
)
from repro.localization.ranging import GpsRange
from repro.perf import perf

#: Per-symbol multipath taps ``(excess_delay_samples, power_db)`` of a
#: LOS and an NLOS localization link.
TAPS_LOS: Tuple[Tuple[float, float], ...] = ((0.1, -9.0),)
TAPS_NLOS: Tuple[Tuple[float, float], ...] = ((0.5, -3.0), (1.2, -6.0))


def _delay_phase(config, delay_samples: float) -> np.ndarray:
    """``exp(-2j pi f_k d / N)`` over the signed (``fftfreq``) bin frequencies."""
    freqs = np.fft.fftfreq(config.n_fft) * config.n_fft
    return np.exp(-2j * np.pi * freqs * delay_samples / config.n_fft)


def apply_channel(symbol, config, delay_samples, snr_db, rng, multipath=()):
    """One received SRS symbol: delayed direct path + taps + AWGN.

    Draws one uniform phase per tap, in tap order, then the
    ``(n_fft, 2)`` noise block.
    """
    rx = symbol * _delay_phase(config, delay_samples)
    for excess, power_db in multipath:
        amp = 10.0 ** (power_db / 20.0)
        phase = np.exp(2j * np.pi * rng.random())
        rx = rx + amp * phase * symbol * _delay_phase(config, delay_samples + excess)
    active = np.abs(symbol) > 0
    sig_power = float(np.mean(np.abs(symbol[active]) ** 2)) if active.any() else 1.0
    noise_power = sig_power / (10.0 ** (snr_db / 10.0))
    noise = rng.normal(0.0, np.sqrt(noise_power / 2.0), (config.n_fft, 2))
    return rx + noise[:, 0] + 1j * noise[:, 1]


def upsample_freq(x: np.ndarray, factor: int) -> np.ndarray:
    """Zero-pad the middle of a frequency-domain vector by ``factor`` (Eq. 2).

    With the standard FFT layout (positive frequencies first, negative
    at the top), inserting ``N (K - 1)`` zeros between the two halves
    interpolates the time-domain signal by ``K``.
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    x = np.asarray(x)
    half = len(x) // 2
    return np.concatenate([x[:half], np.zeros(len(x) * (factor - 1), x.dtype), x[half:]])


def correlation_quality(mag: np.ndarray, peak: int) -> float:
    """Peak over the median magnitude outside a ``total // 128`` guard."""
    total = len(mag)
    guard = max(1, total // 128)
    if 2 * guard + 1 >= total:
        return float("inf")
    background = float(np.median(mag[(peak + np.arange(guard + 1, total - guard)) % total]))
    if background <= 1e-30:
        return float("inf")
    return float(mag[peak] / background)


def estimate_delay_and_quality(received, known, upsampling=4, refine=True):
    """Eq. 1-3 delay in samples (parabolic sub-bin refinement) and peak quality."""
    mag = np.abs(np.fft.ifft(upsample_freq(received * np.conj(known), upsampling)))
    total = len(mag)
    peak = int(np.argmax(mag))
    delta = 0.0
    if refine:
        y0, y1, y2 = mag[(peak - 1) % total], mag[peak], mag[(peak + 1) % total]
        denom = y0 - 2.0 * y1 + y2
        if abs(denom) > 1e-12:
            delta = float(np.clip(0.5 * (y0 - y2) / denom, -0.5, 0.5))
    pos = peak + delta
    if pos > total / 2:
        pos -= total
    return pos / upsampling, correlation_quality(mag, peak)


def aggregate_tof_to_gps(gps_times_s, gps_xyz, tof_times_s, ranges_m) -> List[GpsRange]:
    """Mean of the ranges in each fix's ``[t_i, t_{i+1})`` window, one fix at a time."""
    gps_times = np.asarray(gps_times_s, dtype=float)
    gps_xyz = np.asarray(gps_xyz, dtype=float)
    tof_times = np.asarray(tof_times_s, dtype=float)
    ranges = np.asarray(ranges_m, dtype=float)
    if np.any(np.diff(gps_times) < 0):
        raise ValueError("gps_times_s must be non-decreasing")
    out: List[GpsRange] = []
    for i, t in enumerate(gps_times):
        t_next = gps_times[i + 1] if i + 1 < len(gps_times) else np.inf
        mask = (tof_times >= t) & (tof_times < t_next)
        if mask.any():
            out.append(
                GpsRange(gps_xyz=gps_xyz[i], range_m=float(ranges[mask].mean()), t_s=float(t))
            )
    return out


def mad_filter(
    observations: Sequence[GpsRange], k: float = 4.0, k_pos: Optional[float] = None
) -> List[GpsRange]:
    """MAD cut around an 11-point moving median, one window at a time."""
    obs = list(observations)
    if len(obs) < 5:
        return obs
    r = np.array([o.range_m for o in obs])
    half = min(11, len(r) | 1) // 2
    trend = np.array(
        [np.median(r[max(0, i - half) : i + half + 1]) for i in range(len(r))]
    )
    resid = r - trend
    center = np.median(resid)
    scale = 1.4826 * np.median(np.abs(resid - center))
    if scale <= 1e-9:
        return obs
    upper = (k_pos if k_pos is not None else k) * scale
    keep = (resid - center >= -k * scale) & (resid - center <= upper)
    return [o for o, good in zip(obs, keep) if good]


def collect_gps_ranges(
    log,
    ue,
    channel,
    enodeb,
    estimator,
    rng,
    processing_offset_m: float = DEFAULT_PROCESSING_OFFSET_M,
    srs_rate_hz: float = SRS_RATE_HZ,
    faults=None,
    min_quality: Optional[float] = None,
) -> List[GpsRange]:
    """The localization flight one SRS reception at a time.

    Each kept symbol goes through :func:`apply_channel` and
    :func:`estimate_delay_and_quality` in time order, then the loops
    above aggregate the ranges.
    """
    cfg = enodeb.srs_config
    n_srs = max(2, int(log.duration_s * srs_rate_hz) + 1)
    srs_times = np.linspace(log.t_s[0], log.t_s[-1], n_srs)
    if faults is not None:
        srs_keep, srs_delivered = faults.srs_faults(srs_times)
    else:
        srs_keep, srs_delivered = np.ones(n_srs, dtype=bool), srs_times
    true_pos = _positions_at(log, srs_times, "true")
    dist = np.linalg.norm(true_pos - ue.xyz[None, :], axis=1)
    path_loss, los = channel.path_loss_and_los(true_pos, ue.xyz)
    snr = UPLINK_BUDGET.snr_db(path_loss)
    jitter_std = np.where(los, TOF_JITTER_LOS_S, TOF_JITTER_NLOS_S)
    jitter_m = rng.normal(0.0, 1.0, n_srs) * jitter_std * 299_792_458.0

    tx = enodeb.known_srs_symbol(ue)
    ranges = np.full(n_srs, np.nan)
    for i in range(n_srs):
        if not srs_keep[i]:
            continue  # burst lost before it reached the eNodeB
        delay = (dist[i] + processing_offset_m + jitter_m[i]) / cfg.meters_per_sample
        taps = TAPS_LOS if los[i] else TAPS_NLOS
        rx = apply_channel(tx, cfg, delay, float(snr[i]), rng, taps)
        delay_est, quality = estimate_delay_and_quality(rx, tx, estimator.upsampling)
        if min_quality is not None and quality < min_quality:
            srs_keep[i] = False
            perf.count("fallback.srs_quality_reject")
            continue
        ranges[i] = delay_est * cfg.meters_per_sample

    if faults is not None:
        ranges[srs_keep] = faults.tof_outliers(ranges[srs_keep])
    gps_t, gps_xyz = log.t_s, log.gps_xyz
    if log.gps_valid is not None:
        gps_t, gps_xyz = gps_t[log.gps_valid], gps_xyz[log.gps_valid]
    return aggregate_tof_to_gps(gps_t, gps_xyz, srs_delivered[srs_keep], ranges[srs_keep])


def joint_residuals(data, theta, ue_z: float, prior_b: float, prior_w: float) -> np.ndarray:
    """Joint-solve residuals, one UE at a time in ascending id order."""
    b = theta[-1]
    out = []
    for i, ue_id in enumerate(sorted(data)):
        anchors, ranges = data[ue_id]
        p = np.array([theta[2 * i], theta[2 * i + 1], ue_z])
        out.append(np.linalg.norm(anchors - p[None, :], axis=1) + b - ranges)
    if prior_w > 0:
        out.append(np.array([np.sqrt(prior_w) * (b - prior_b)]))
    return np.concatenate(out)
