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
  (:func:`repro.localization.joint._joint_model`);
* :func:`joint_model` and :func:`joint_solve_scipy` — the joint solve on
  SciPy's ``least_squares`` with a dense Jacobian.  Its answers, not its
  bits, are what :func:`repro.localization.solve_joint_multilateration`
  must reproduce: that solve takes each trust-region step from a small
  normal matrix instead of the SVD of the dense Jacobian, so the two
  agree only to the solver's tolerance.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import least_squares

from repro.flight.sampler import (
    DEFAULT_PROCESSING_OFFSET_M,
    SRS_RATE_HZ,
    TOF_JITTER_LOS_S,
    TOF_JITTER_NLOS_S,
    UPLINK_BUDGET,
    _positions_at,
)
from repro.localization.joint import (
    JointLocalizationResult,
    MultilaterationResult,
    _flatten,
    _stack_observations,
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
    n_srs = max(2, int(log.duration_s * srs_rate_hz + 1e-6) + 1)
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


def joint_model(data, ue_z: float, prior_b: float, prior_w: float):
    """Dense ``(residuals, jac)`` of the joint problem over ``data``.

    ``data`` maps UE id to ``(anchors (m, 3), ranges (m,))``.  The
    residuals are ``||p_u - a_i|| + b - r_i`` over every UE's rows in
    one flat pass, plus one ``sqrt(prior_w) * (b - prior_b)`` row when
    ``prior_w > 0``.  The Jacobian is closed-form: ``(p_xy - a_xy) /
    dist`` on the row's own UE columns and 1 on the offset column, so
    ``jac`` returns the full ``m x (2U + 1)`` array.
    """
    anchors, ranges, ue_idx = _flatten(data)
    ax, ay = anchors[:, 0], anchors[:, 1]
    dz2 = (anchors[:, 2] - ue_z) ** 2
    m = len(ranges)
    rows = m + (1 if prior_w > 0 else 0)
    n_params = 2 * len(data) + 1
    xi, yi = 2 * ue_idx, 2 * ue_idx + 1

    def residuals(theta: np.ndarray) -> np.ndarray:
        dx = ax - theta[xi]
        dy = ay - theta[yi]
        dist = np.sqrt(dx * dx + dy * dy + dz2)
        out = np.empty(rows)
        out[:m] = dist + theta[-1] - ranges
        if prior_w > 0:
            out[m] = np.sqrt(prior_w) * (theta[-1] - prior_b)
        return out

    def jac(theta: np.ndarray) -> np.ndarray:
        dx = theta[xi] - ax
        dy = theta[yi] - ay
        dist = np.maximum(np.sqrt(dx * dx + dy * dy + dz2), 1e-12)
        J = np.zeros((rows, n_params))
        obs_rows = np.arange(m)
        J[obs_rows, xi] = dx / dist
        J[obs_rows, yi] = dy / dist
        J[:m, -1] = 1.0
        if prior_w > 0:
            J[m, -1] = np.sqrt(prior_w)
        return J

    return residuals, jac


def joint_solve_scipy(
    observations_by_ue: Mapping[int, Sequence[GpsRange]],
    ue_z: float = 1.5,
    huber_delta_m: float = 5.0,
    max_iter: int = 1000,
    tol: float = 1e-8,
    restarts: int = 3,
    seed: Optional[int] = 0,
    bounds_xy: Optional[tuple] = None,
    offset_prior: Optional[tuple] = None,
) -> JointLocalizationResult:
    """:func:`repro.localization.solve_joint_multilateration` on SciPy.

    The restarts, jitter draws and one-sided NLOS trims are the
    production solve's, verbatim; each solve is
    ``scipy.optimize.least_squares`` on the dense Jacobian of
    :func:`joint_model` (SVD trust-region steps).
    """
    ue_ids = sorted(observations_by_ue)
    if not ue_ids:
        raise ValueError("need observations for at least one UE")
    data = {}
    for ue_id in ue_ids:
        obs = list(observations_by_ue[ue_id])
        if len(obs) < 3:
            raise ValueError(f"UE {ue_id}: need at least 3 observations, got {len(obs)}")
        data[ue_id] = _stack_observations(obs)
    orig_counts = {ue_id: len(data[ue_id][1]) for ue_id in ue_ids}

    if offset_prior is not None:
        prior_b, prior_w = float(offset_prior[0]), float(offset_prior[1])
        if prior_w < 0:
            raise ValueError(f"offset prior weight must be >= 0, got {prior_w}")
    else:
        prior_b, prior_w = 0.0, 0.0

    residuals, jac = joint_model(data, ue_z, prior_b, prior_w)

    rng = np.random.default_rng(seed)
    first_anchors = data[ue_ids[0]][0]
    spread = max(float(first_anchors[:, :2].std()), 10.0)

    if bounds_xy is not None:
        (x_lo, x_hi), (y_lo, y_hi) = bounds_xy
        lower = np.array([x_lo, y_lo] * len(ue_ids) + [-2000.0])
        upper = np.array([x_hi, y_hi] * len(ue_ids) + [2000.0])
        solver_bounds = (lower, upper)
    else:
        solver_bounds = (-np.inf, np.inf)

    def _clip_theta(theta: np.ndarray) -> np.ndarray:
        if bounds_xy is None:
            return theta
        return np.clip(theta, solver_bounds[0] + 1e-6, solver_bounds[1] - 1e-6)

    def initial_theta(jitter: float) -> np.ndarray:
        theta = []
        b_guesses = []
        for ue_id in ue_ids:
            anchors, ranges = data[ue_id]
            c = anchors[:, :2].mean(axis=0) + rng.normal(0.0, jitter, 2)
            theta.extend([c[0], c[1]])
            dz = ue_z - anchors[:, 2]
            dist0 = np.sqrt(np.sum((c[None, :] - anchors[:, :2]) ** 2, axis=1) + dz * dz)
            b_guesses.append(np.median(ranges - dist0))
        theta.append(float(np.median(b_guesses)))
        return _clip_theta(np.array(theta))

    best = None
    with perf.span("loc.joint_solve"):
        for attempt in range(max(1, restarts)):
            jitter = 0.0 if attempt == 0 else 3.0 * spread
            sol = least_squares(
                residuals,
                x0=initial_theta(jitter),
                loss="huber",
                f_scale=huber_delta_m,
                max_nfev=max_iter,
                xtol=tol,
                ftol=tol,
                gtol=tol,
                bounds=solver_bounds,
                jac=jac,
            )
            if best is None or sol.cost < best.cost:
                best = sol

        # NLOS multipath only ever *delays* the correlation peak, so
        # large positive residuals are delay spikes, not information.
        # Trim them one-sidedly against the first fit and re-solve:
        # classic ToF NLOS mitigation, and what keeps one obstructed UE
        # from dragging the shared offset (and with it every other UE's
        # position).
        for _ in range(2):
            res = residuals(best.x)
            scale = 1.4826 * float(np.median(np.abs(res - np.median(res))))
            cut = max(2.5, 2.0 * scale)
            anchors_f, ranges_f, ue_idx_f = _flatten(data)
            m = len(ranges_f)
            keep = res[:m] <= cut
            counts = np.bincount(ue_idx_f, minlength=len(ue_ids))
            kept_counts = np.bincount(ue_idx_f[keep], minlength=len(ue_ids))
            forced = kept_counts < 3  # too few survivors: keep all rows
            trimmed_any = bool(np.any(~forced & (kept_counts < counts)))
            if not trimmed_any:
                break
            keep |= forced[ue_idx_f]
            data = {
                ue_id: (
                    anchors_f[keep & (ue_idx_f == i)],
                    ranges_f[keep & (ue_idx_f == i)],
                )
                for i, ue_id in enumerate(ue_ids)
            }
            residuals, jac = joint_model(data, ue_z, prior_b, prior_w)
            best = least_squares(
                residuals,
                x0=_clip_theta(best.x),
                loss="huber",
                f_scale=huber_delta_m,
                max_nfev=max_iter,
                xtol=tol,
                ftol=tol,
                gtol=tol,
                bounds=solver_bounds,
                jac=jac,
            )

    theta = best.x
    b = float(theta[-1])
    per_ue: Dict[int, MultilaterationResult] = {}
    for i, ue_id in enumerate(ue_ids):
        anchors, ranges = data[ue_id]
        position = np.array([theta[2 * i], theta[2 * i + 1], ue_z])
        dist = np.linalg.norm(anchors - position[None, :], axis=1)
        res = dist + b - ranges
        per_ue[ue_id] = MultilaterationResult(
            position=position,
            offset_m=b,
            residual_rms_m=float(np.sqrt(np.mean(res**2))),
            n_iter=int(best.nfev),
            converged=bool(best.success),
            # How much of this UE's data the NLOS trimming kept — the
            # per-UE quality score degraded-mode fallbacks key on.
            inlier_fraction=len(ranges) / orig_counts[ue_id],
        )
    return JointLocalizationResult(
        per_ue=per_ue, offset_m=b, converged=bool(best.success)
    )
