"""Offset-augmented joint multilateration (paper Section 3.2.3).

Each observation gives a range ``r_i`` from a known UAV anchor ``a_i``
to an unknown UE position ``p``, corrupted by a *constant* processing
offset ``b`` plus noise:

    r_i = ||p - a_i|| + b + n_i

The paper folds ``b`` into the unknowns and solves the least-squares
problem iteratively.  The problem is sharply ill-conditioned for short
flights: to first order a small aperture only determines the
*direction* to a UE, while range and offset separate only through the
second-order curvature of ``||p - a_i||`` along the flight (noise
amplified by ~range/aperture).  Plain gradient descent crawls in that
valley, so the solver is a bounded trust-region reflective least
squares with a Huber loss against heavy-tailed NLOS outliers, plus
restarts because the robust objective is non-convex.  It is SciPy's
``least_squares`` TRF iteration, ported
(:mod:`repro.localization._trf`) so that each step solves the
trust-region subproblem from the ``(2U + 1)``-square normal matrix:
every range row touches only its own UE's ``(x, y)`` and the offset,
so that matrix and the step's products are per-UE sums over the rows,
never a dense ``m x (2U + 1)`` Jacobian.

The offset is a property of the eNodeB receive chain, not of any UE —
every UE ranged in the same flight shares it.  Estimating one offset
jointly across all UEs is far better conditioned than per-UE
estimation: with ``U`` UEs the offset is constrained by all of them at
once and the per-UE error drops roughly by ``sqrt(U)``.  This is how
SkyRAN reaches median 5-7 m from a 20 m flight (Fig. 18); a single UE
is the ``U = 1`` case of the same solve.

The UE height is fixed to a known antenna height (UEs are on the
ground; the UAV flies 40-120 m above, so the geometry has almost no
vertical diversity and estimating z would be ill-conditioned).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.localization._trf import least_squares_huber
from repro.localization.ranging import GpsRange
from repro.perf import perf


@dataclass(frozen=True)
class MultilaterationResult:
    """One UE's solution of the offset-augmented multilateration.

    Attributes
    ----------
    position:
        Estimated UE position ``(x, y, z)``; z is the fixed input.
    offset_m:
        Estimated constant range offset.
    residual_rms_m:
        RMS of the final range residuals.
    n_iter:
        Residual-function evaluations used by the winning solve.
    converged:
        Whether the winning solve reported convergence.
    inlier_fraction:
        Fraction of the input observations the solve actually trusted
        (1.0 when the NLOS trim kept everything).  Together with
        ``residual_rms_m`` this is the per-UE quality score the
        degraded-mode controller gates its fallbacks on.
    """

    position: np.ndarray
    offset_m: float
    residual_rms_m: float
    n_iter: int
    converged: bool
    inlier_fraction: float = 1.0


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


def _flatten(data):
    """Stack per-UE ``(anchors, ranges)`` into flat arrays + a UE-index vector.

    UEs are taken in ascending id order, the parameter layout of the
    joint solve (``theta = [x_0, y_0, x_1, y_1, ..., b]``).
    """
    ue_ids = sorted(data)
    anchors = np.concatenate([data[u][0] for u in ue_ids], axis=0)
    ranges = np.concatenate([data[u][1] for u in ue_ids])
    ue_idx = np.concatenate(
        [np.full(len(data[u][1]), i, dtype=int) for i, u in enumerate(ue_ids)]
    )
    return anchors, ranges, ue_idx


class _JointJacobian:
    """The joint problem's Jacobian, one row per residual, never dense.

    Row ``i`` holds ``jx[i]``, ``jy[i]`` on its UE's columns ``xi[i] =
    2u``, ``yi[i] = 2u + 1`` and ``jb[i]`` on the offset column
    ``n - 1``; every other entry is zero.  Rows come in contiguous
    per-UE blocks starting at ``starts`` (the layout :func:`_flatten`
    gives); the offset-prior row closes the last block with
    ``jx = jy = 0``.  This is the interface
    :func:`repro.localization._trf.least_squares_huber` steps on: ``J p``
    is one gather, and ``J^T f`` with ``J^T J`` is one block sum, O(m).
    """

    __slots__ = ("jx", "jy", "jb", "xi", "yi", "starts")

    def __init__(self, jx, jy, jb, xi, yi, starts):
        self.jx, self.jy, self.jb = jx, jy, jb
        self.xi, self.yi, self.starts = xi, yi, starts

    def scale_rows(self, w: np.ndarray) -> "_JointJacobian":
        """``diag(w) J``."""
        return _JointJacobian(
            self.jx * w, self.jy * w, self.jb * w, self.xi, self.yi, self.starts
        )

    def matvec(self, p: np.ndarray) -> np.ndarray:
        """``J p``."""
        return self.jx * p[self.xi] + self.jy * p[self.yi] + self.jb * p[-1]

    def normal(self, f: np.ndarray):
        """``(J^T f, J^T J)``.

        ``J^T J`` is per-UE 2x2 blocks, their couplings to the offset
        and the offset's diagonal; each is a per-UE sum of row products.
        """
        jx, jy, jb = self.jx, self.jy, self.jb
        sums = np.add.reduceat(
            np.stack([jx * f, jy * f, jx * jx, jy * jy, jx * jy, jx * jb, jy * jb]),
            self.starts,
            axis=1,
        )
        n = 2 * len(self.starts) + 1
        xs, ys = np.arange(0, n - 1, 2), np.arange(1, n - 1, 2)
        g = np.empty(n)
        g[xs], g[ys], g[-1] = sums[0], sums[1], np.dot(jb, f)
        G = np.zeros((n, n))
        G[xs, xs] = sums[2]
        G[ys, ys] = sums[3]
        G[xs, ys] = G[ys, xs] = sums[4]
        G[xs, -1] = G[-1, xs] = sums[5]
        G[ys, -1] = G[-1, ys] = sums[6]
        G[-1, -1] = np.dot(jb, jb)
        return g, G


def _joint_model(data, ue_z: float, prior_b: float, prior_w: float):
    """``(residuals, jac)`` of the joint problem over ``data``.

    ``data`` maps UE id to ``(anchors (m, 3), ranges (m,))``.  The
    residuals are ``||p_u - a_i|| + b - r_i`` over every UE's rows in
    one flat pass, plus one ``sqrt(prior_w) * (b - prior_b)`` row when
    ``prior_w > 0``.  ``jac`` returns the closed-form Jacobian as a
    :class:`_JointJacobian`: ``(p_xy - a_xy) / dist`` on the row's own
    UE columns and 1 on the offset column (``sqrt(prior_w)`` on the
    prior row).
    """
    anchors, ranges, ue_idx = _flatten(data)
    ax, ay = anchors[:, 0], anchors[:, 1]
    dz2 = (anchors[:, 2] - ue_z) ** 2
    m = len(ranges)
    has_prior = prior_w > 0
    rows = m + (1 if has_prior else 0)
    xi, yi = 2 * ue_idx, 2 * ue_idx + 1
    row_xi = np.append(xi, xi[-1]) if has_prior else xi
    row_yi = row_xi + 1
    starts = np.flatnonzero(np.diff(ue_idx, prepend=-1))
    jb = np.ones(rows)
    if has_prior:
        jb[m] = np.sqrt(prior_w)

    def residuals(theta: np.ndarray) -> np.ndarray:
        dx = ax - theta[xi]
        dy = ay - theta[yi]
        dist = np.sqrt(dx * dx + dy * dy + dz2)
        out = np.empty(rows)
        out[:m] = dist + theta[-1] - ranges
        if has_prior:
            out[m] = np.sqrt(prior_w) * (theta[-1] - prior_b)
        return out

    def jac(theta: np.ndarray) -> _JointJacobian:
        dx = theta[xi] - ax
        dy = theta[yi] - ay
        dist = np.maximum(np.sqrt(dx * dx + dy * dy + dz2), 1e-12)
        jx = np.zeros(rows)
        jy = np.zeros(rows)
        jx[:m] = dx / dist
        jy[:m] = dy / dist
        return _JointJacobian(jx, jy, jb, row_xi, row_yi, starts)

    return residuals, jac


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

    residuals, jac = _joint_model(data, ue_z, prior_b, prior_w)

    rng = np.random.default_rng(seed)
    first_anchors = data[ue_ids[0]][0]
    spread = max(float(first_anchors[:, :2].std()), 10.0)

    if bounds_xy is not None:
        (x_lo, x_hi), (y_lo, y_hi) = bounds_xy
        lower = np.array([x_lo, y_lo] * len(ue_ids) + [-2000.0])
        upper = np.array([x_hi, y_hi] * len(ue_ids) + [2000.0])
    else:
        lower = np.full(2 * len(ue_ids) + 1, -np.inf)
        upper = np.full(2 * len(ue_ids) + 1, np.inf)

    def _clip_theta(theta: np.ndarray) -> np.ndarray:
        if bounds_xy is None:
            return theta
        return np.clip(theta, lower + 1e-6, upper - 1e-6)

    def _solve(residuals, jac, x0: np.ndarray):
        sol = least_squares_huber(
            residuals, jac, x0, lower, upper, f_scale=huber_delta_m, max_nfev=max_iter, tol=tol
        )
        perf.count("loc.joint.nfev", sol.nfev)
        if sol.status == 0:
            perf.count("loc.joint.max_nfev_stops")
        return sol

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
            sol = _solve(residuals, jac, initial_theta(jitter))
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
            residuals, jac = _joint_model(data, ue_z, prior_b, prior_w)
            best = _solve(residuals, jac, _clip_theta(best.x))

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
