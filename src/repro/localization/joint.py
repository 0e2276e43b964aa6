"""Joint multi-UE multilateration with a shared offset.

The constant ToF processing offset is a property of the eNodeB receive
chain, not of any UE — every UE ranged in the same flight shares it.
Estimating one offset jointly across all UEs is dramatically better
conditioned than per-UE estimation: for a single UE a short flight
only separates range from offset through the second-order curvature of
the range profile (noise amplified by ~range/aperture), whereas with
``U`` UEs the offset is constrained by all of them at once and the
per-UE error drops roughly by ``sqrt(U)``.

This is how SkyRAN reaches median 5-7 m from a 20 m flight (Fig. 18);
:func:`solve_joint_multilateration` is the production path, while
:func:`~repro.localization.multilateration.solve_multilateration`
remains for single-UE use and ablations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

import numpy as np
from scipy.optimize import least_squares

from repro.localization.multilateration import MultilaterationResult
from repro.localization.ranging import GpsRange
from repro.perf import perf


@dataclass(frozen=True)
class JointLocalizationResult:
    """Positions for every UE plus the shared offset.

    Attributes
    ----------
    per_ue:
        :class:`MultilaterationResult` per UE id (all sharing the same
        ``offset_m``).
    offset_m:
        The jointly estimated receive-chain offset.
    converged:
        Whether the joint solve reported convergence.
    """

    per_ue: Dict[int, MultilaterationResult]
    offset_m: float
    converged: bool


def _stack_observations(observations: Sequence[GpsRange]):
    anchors = np.array([o.gps_xyz for o in observations], dtype=float)
    ranges = np.array([o.range_m for o in observations], dtype=float)
    return anchors, ranges


#: Jacobian modes for the joint solve.  "analytic" evaluates the exact
#: closed-form Jacobian in one vectorized pass; "2-point" is SciPy's
#: dense finite differencing (2U+1 residual sweeps per step — the
#: pre-analytic behavior, retained as the validation oracle) and
#: "3-point" its higher-order variant (truncation error ~eps^(2/3)
#: instead of ~sqrt(eps), the tighter oracle for validating the
#: analytic mode).
JAC_MODES = ("analytic", "2-point", "3-point")

#: Residual-model implementations.  "vectorized" evaluates all UEs in
#: one flat pass (and is the only model with an analytic Jacobian);
#: "reference" retains the per-UE-loop residual closure the solver
#: shipped with, as the honest baseline for benchmarking and for
#: validating that vectorization did not change the solve.
MODEL_MODES = ("vectorized", "reference")


def solve_joint_multilateration(
    observations_by_ue: Mapping[int, Sequence[GpsRange]],
    ue_z: float = 1.5,
    huber_delta_m: float = 5.0,
    max_iter: int = 1000,
    tol: float = 1e-8,
    restarts: int = 3,
    seed: Optional[int] = 0,
    bounds_xy: Optional[tuple] = None,
    offset_prior: Optional[tuple] = None,
    jac: str = "analytic",
    model: str = "vectorized",
) -> JointLocalizationResult:
    """Solve every UE's position and one shared range offset.

    Parameters
    ----------
    observations_by_ue:
        GPS-range tuples per UE id, all from the same flight (so they
        share the receive-chain offset).
    ue_z:
        Assumed UE antenna height.
    huber_delta_m:
        Huber scale for NLOS outliers.
    max_iter, tol:
        Trust-region solve limits.
    restarts:
        Random restarts (jittered anchor centroids).
    seed:
        Jitter seed.
    bounds_xy:
        Optional ``((x_min, x_max), (y_min, y_max))`` box every UE
        position must lie in.  The operating-area boundary is the one
        parameter a SkyRAN UAV is launched with, so constraining the
        solve to it is free information — and it stops a deep-NLOS
        UE's solution from running away to a phantom hundreds of
        meters out.
    offset_prior:
        Optional ``(offset_m, weight)`` prior on the shared offset —
        typically from :class:`~repro.localization.calibration.
        OffsetCalibrator`.  Implemented as ``sqrt(weight)`` extra
        residual rows pulling ``b`` toward the prior; the offset is a
        receive-chain constant, so epochs after the first should not
        re-learn it from scratch.
    jac:
        One of :data:`JAC_MODES`.  The default analytic Jacobian makes
        each trust-region step one vectorized evaluation instead of
        ``2U + 1`` finite-difference residual sweeps; "2-point"
        reproduces the finite-difference solve (the validation oracle)
        and "3-point" its higher-order variant.
    model:
        One of :data:`MODEL_MODES`.  "vectorized" (default) evaluates
        the residuals of all UEs in one flat pass; "reference" retains
        the per-UE-loop residual closure (finite-difference Jacobians
        only) as the benchmark baseline.  Both produce bit-identical
        residual values.
    """
    if jac not in JAC_MODES:
        raise ValueError(f"jac must be one of {JAC_MODES}, got {jac!r}")
    if model not in MODEL_MODES:
        raise ValueError(f"model must be one of {MODEL_MODES}, got {model!r}")
    if model == "reference" and jac not in ("2-point", "3-point"):
        raise ValueError(
            f"the reference model supports finite-difference Jacobians only, got {jac!r}"
        )
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
    n_params = 2 * len(ue_ids) + 1

    if offset_prior is not None:
        prior_b, prior_w = float(offset_prior[0]), float(offset_prior[1])
        if prior_w < 0:
            raise ValueError(f"offset prior weight must be >= 0, got {prior_w}")
    else:
        prior_b, prior_w = 0.0, 0.0

    def flatten(data):
        """Stack per-UE observations into flat arrays + a UE-index vector."""
        anchors = np.concatenate([data[u][0] for u in ue_ids], axis=0)
        ranges = np.concatenate([data[u][1] for u in ue_ids])
        ue_idx = np.concatenate(
            [np.full(len(data[u][1]), i, dtype=int) for i, u in enumerate(ue_ids)]
        )
        return anchors, ranges, ue_idx

    def make_model(data):
        """(residuals, jac) closures over the current data."""
        anchors, ranges, ue_idx = flatten(data)
        ax, ay = anchors[:, 0], anchors[:, 1]
        dz2 = (anchors[:, 2] - ue_z) ** 2
        m = len(ranges)
        rows = m + (1 if prior_w > 0 else 0)
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

        def jac_fn(theta: np.ndarray) -> np.ndarray:
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

        return residuals, jac_fn

    def make_model_reference(data):
        """The retained per-UE-loop residual closure (seed behavior)."""

        def residuals(theta: np.ndarray) -> np.ndarray:
            b = theta[-1]
            out = []
            for i, ue_id in enumerate(ue_ids):
                anchors, ranges = data[ue_id]
                p = np.array([theta[2 * i], theta[2 * i + 1], ue_z])
                dist = np.linalg.norm(anchors - p[None, :], axis=1)
                out.append(dist + b - ranges)
            if prior_w > 0:
                out.append(np.array([np.sqrt(prior_w) * (b - prior_b)]))
            return np.concatenate(out)

        return residuals, None

    build_model = make_model if model == "vectorized" else make_model_reference
    residuals, jac_fn = build_model(data)

    rng = np.random.default_rng(seed)
    first_anchors, first_ranges = data[ue_ids[0]]
    centroid = first_anchors[:, :2].mean(axis=0)
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
                jac=jac_fn if jac == "analytic" else jac,
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
            anchors_f, ranges_f, ue_idx_f = flatten(data)
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
            residuals, jac_fn = build_model(data)
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
                jac=jac_fn if jac == "analytic" else jac,
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
