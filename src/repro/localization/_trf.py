"""Bounded trust-region reflective least squares under a Huber loss.

This is SciPy's ``least_squares(method="trf", tr_solver="exact",
x_scale=1.0, loss="huber")`` path, ported for a Jacobian that is never
stored as a dense ``m x n`` array.  The iterates are SciPy's: the same
Coleman-Li scaling, the same secular-equation solve of the trust-region
subproblem, the same reflective step selection, radius update and
termination test, the same tolerances and ``max_nfev`` accounting.

One thing differs.  SciPy takes the subproblem's ``(s, V, uf)`` from
the SVD of the dense ``(m + n) x n`` augmented matrix
``[J_h; diag(diag_h)**0.5]``.  :func:`least_squares_huber` takes them
from ``eigh`` of the ``n x n`` normal matrix ``J_h^T J_h +
diag(diag_h)``: its eigenvalues are the squared singular values, its
eigenvectors are ``V``, and ``uf = V^T J_h^T f / s`` (exactly zero where
``s`` is zero).  The caller's Jacobian object assembles the normal
matrix, ``J^T f`` and the ``J p`` products in O(m), so a step costs one
small ``eigh`` instead of a tall SVD.  The answers agree with SciPy's to
rounding; the normal matrix squares the condition number, so in
directions SciPy resolves below ``sqrt(eps)`` of the largest singular
value the two can part by more than rounding.

With every bound infinite the Coleman-Li vector is 1 and ``diag_h`` is
0, which makes this SciPy's ``trf_no_bounds`` step for step, so one
loop serves both.

The Jacobian object ``jac(x)`` returns provides ``scale_rows(w)``
(``diag(w) J``), ``matvec(p)`` (``J p``) and ``normal(f)`` (``(J^T f,
J^T J)``).

Ported from ``scipy/optimize/_lsq/trf.py`` (``trf_bounds``,
``select_step``), ``scipy/optimize/_lsq/common.py`` and
``scipy/optimize/_lsq/least_squares.py`` (``huber``,
``construct_loss_function``), SciPy 1.17, under SciPy's license:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign

import numpy as np
from numpy.linalg import norm

EPS = np.finfo(float).eps


@dataclass(frozen=True)
class TRFResult:
    """The fields of SciPy's ``OptimizeResult`` the joint solve reads.

    ``status`` is SciPy's: 0 when ``max_nfev`` stopped the solve, 1-4
    for the gtol / ftol / xtol / ftol-and-xtol tests.
    """

    x: np.ndarray
    cost: float
    nfev: int
    status: int

    @property
    def success(self) -> bool:
        return self.status > 0


# -- the Huber loss (least_squares.py: huber, construct_loss_function) --------


def _huber_rho(f, f_scale):
    """``(rho, out, z_out)``: the Huber loss of ``z = (f / f_scale)**2``.

    ``out`` marks the outlier rows (``z > 1``) and ``z_out`` holds
    their ``z``.
    """
    rho = (f / f_scale) ** 2
    out = rho > 1
    zo = rho[out]
    rho[out] = 2 * zo**0.5 - 1
    return rho, out, zo


def _huber_cost(f, f_scale):
    rho, _, _ = _huber_rho(f, f_scale)
    return 0.5 * f_scale**2 * np.sum(rho)


def _huber_scaled(f, f_scale):
    """``(cost, row_scale, f_scaled)``: the loss and ``scale_for_robust_loss_function``.

    Inlier rows (``|f| <= f_scale``) keep weight 1 and their residual;
    only the outlier rows are reweighted.  ``f`` is scaled in place.
    """
    rho, out, zo = _huber_rho(f, f_scale)
    rho *= f_scale**2
    cost = 0.5 * np.sum(rho)
    scale = np.ones_like(f)
    if zo.size:
        fo = f[out]
        rho1 = zo**-0.5
        rho2 = -0.5 * zo**-1.5 / f_scale**2
        js = rho1 + 2 * rho2 * fo**2
        js[js < EPS] = EPS
        js **= 0.5
        scale[out] = js
        f[out] = fo * (rho1 / js)
    return cost, scale, f


# -- bounds (common.py) --------------------------------------------------------


def _in_bounds(x, lb, ub):
    return np.all((x >= lb) & (x <= ub))


def _step_size_to_bound(x, s, lb, ub):
    non_zero = np.nonzero(s)
    s_non_zero = s[non_zero]
    steps = np.empty_like(x)
    steps.fill(np.inf)
    with np.errstate(over="ignore"):
        steps[non_zero] = np.maximum(
            (lb - x)[non_zero] / s_non_zero, (ub - x)[non_zero] / s_non_zero
        )
    min_step = np.min(steps)
    return min_step, np.equal(steps, min_step) * np.sign(s).astype(int)


def _make_strictly_feasible(x, lb, ub, rstep=1e-10):
    x_new = x.copy()
    if rstep == 0:
        lower = x <= lb
        upper = x >= ub
        x_new[lower] = np.nextafter(lb[lower], ub[lower])
        x_new[upper] = np.nextafter(ub[upper], lb[upper])
    else:
        lower_dist = x - lb
        upper_dist = ub - x
        lower = np.isfinite(lb) & (
            lower_dist <= np.minimum(upper_dist, rstep * np.maximum(1, np.abs(lb)))
        )
        upper = np.isfinite(ub) & (
            upper_dist <= np.minimum(lower_dist, rstep * np.maximum(1, np.abs(ub)))
        )
        x_new[lower] = lb[lower] + rstep * np.maximum(1, np.abs(lb[lower]))
        x_new[upper] = ub[upper] - rstep * np.maximum(1, np.abs(ub[upper]))
    tight = (x_new < lb) | (x_new > ub)
    x_new[tight] = 0.5 * (lb[tight] + ub[tight])
    return x_new


def _cl_scaling_vector(x, g, lb, ub):
    v = np.ones_like(x)
    dv = np.zeros_like(x)
    mask = (g < 0) & np.isfinite(ub)
    v[mask] = ub[mask] - x[mask]
    dv[mask] = -1
    mask = (g > 0) & np.isfinite(lb)
    v[mask] = x[mask] - lb[mask]
    dv[mask] = 1
    return v, dv


# -- the trust-region subproblem (common.py) ------------------------------------


def _intersect_trust_region(x, s, Delta):
    a = np.dot(s, s)
    if a == 0:
        raise ValueError("`s` is zero.")
    b = np.dot(x, s)
    c = np.dot(x, x) - Delta**2
    if c > 0:
        raise ValueError("`x` is not within the trust region.")
    d = np.sqrt(b * b - a * c)
    q = -(b + copysign(d, b))
    t1 = q / a
    t2 = c / q
    return (t1, t2) if t1 < t2 else (t2, t1)


def _solve_lsq_trust_region(m, uf, s, V, Delta, initial_alpha=None, rtol=0.01, max_iter=10):
    """More's secular-equation solve of ``min ||J p + f||, ||p|| <= Delta``.

    ``J`` has ``m >= len(s)`` rows, so only ``s`` decides its rank.
    """

    def phi_and_derivative(alpha):
        denom = s**2 + alpha
        p_norm = norm(suf / denom)
        phi = p_norm - Delta
        phi_prime = -np.sum(suf**2 / denom**3) / p_norm
        return phi, phi_prime

    suf = s * uf
    full_rank = s[-1] > EPS * m * s[0]

    if full_rank:
        p = -V.dot(uf / s)
        if norm(p) <= Delta:
            return p, 0.0, 0

    alpha_upper = norm(suf) / Delta

    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0

    if initial_alpha is None or not full_rank and initial_alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
    else:
        alpha = initial_alpha

    for it in range(max_iter):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)

        phi, phi_prime = phi_and_derivative(alpha)

        if phi < 0:
            alpha_upper = alpha

        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta

        if np.abs(phi) < rtol * Delta:
            break

    p = -V.dot(suf / (s**2 + alpha))
    p *= Delta / norm(p)
    return p, alpha, it + 1


def _update_tr_radius(Delta, actual_reduction, predicted_reduction, step_norm, bound_hit):
    if predicted_reduction > 0:
        ratio = actual_reduction / predicted_reduction
    elif predicted_reduction == actual_reduction == 0:
        ratio = 1
    else:
        ratio = 0

    if ratio < 0.25:
        Delta = 0.25 * step_norm
    elif ratio > 0.75 and bound_hit:
        Delta *= 2.0
    return Delta, ratio


def _check_termination(dF, F, dx_norm, x_norm, ratio, ftol, xtol):
    ftol_satisfied = dF < ftol * F and ratio > 0.25
    xtol_satisfied = dx_norm < xtol * (xtol + x_norm)
    if ftol_satisfied and xtol_satisfied:
        return 4
    if ftol_satisfied:
        return 2
    if xtol_satisfied:
        return 3
    return None


# -- quadratic models along a step; ``jh(s)`` is ``J_h s`` (common.py) -----------


def _build_quadratic_1d(jh, g, s, diag, s0=None):
    v = jh(s)
    a = np.dot(v, v)
    a += np.dot(s * diag, s)
    a *= 0.5
    b = np.dot(g, s)
    if s0 is None:
        return a, b
    u = jh(s0)
    b += np.dot(u, v)
    c = 0.5 * np.dot(u, u) + np.dot(g, s0)
    b += np.dot(s0 * diag, s)
    c += 0.5 * np.dot(s0 * diag, s0)
    return a, b, c


def _minimize_quadratic_1d(a, b, lb, ub, c=0):
    t = [lb, ub]
    if a != 0:
        extremum = -0.5 * b / a
        if lb < extremum < ub:
            t.append(extremum)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    min_index = np.argmin(y)
    return t[min_index], y[min_index]


def _evaluate_quadratic(jh, g, s, diag):
    Js = jh(s)
    q = np.dot(Js, Js)
    q += np.dot(s * diag, s)
    return 0.5 * q + np.dot(s, g)


def _select_step(x, jh, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
    """The best of the trust-region, reflected and Cauchy steps (trf.py)."""
    if _in_bounds(x + p, lb, ub):
        p_value = _evaluate_quadratic(jh, g_h, p_h, diag_h)
        return p, p_h, -p_value

    p_stride, hits = _step_size_to_bound(x, p, lb, ub)

    r_h = np.copy(p_h)
    r_h[hits.astype(bool)] *= -1
    r = d * r_h

    p *= p_stride
    p_h *= p_stride
    x_on_bound = x + p

    _, to_tr = _intersect_trust_region(p_h, r_h, Delta)
    to_bound, _ = _step_size_to_bound(x_on_bound, r, lb, ub)

    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        if r_stride == to_bound:
            r_stride_u = theta * to_bound
        else:
            r_stride_u = to_tr
    else:
        r_stride_l = 0
        r_stride_u = -1

    if r_stride_l <= r_stride_u:
        a, b, c = _build_quadratic_1d(jh, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = _minimize_quadratic_1d(a, b, r_stride_l, r_stride_u, c=c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    else:
        r_value = np.inf

    p *= theta
    p_h *= theta
    p_value = _evaluate_quadratic(jh, g_h, p_h, diag_h)

    ag_h = -g_h
    ag = d * ag_h

    to_tr = Delta / norm(ag_h)
    to_bound, _ = _step_size_to_bound(x, ag, lb, ub)
    if to_bound < to_tr:
        ag_stride = theta * to_bound
    else:
        ag_stride = to_tr

    a, b = _build_quadratic_1d(jh, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_quadratic_1d(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride

    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    elif r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    else:
        return ag, ag_h, -ag_value


def _normal_decomposition(gram, d, diag_h, g_h):
    """``(s, V, uf)`` of the augmented ``J_h`` from ``eigh`` of its normal matrix.

    ``gram`` is ``J^T J``; ``J_h = J diag(d)``.  ``s`` descends, as
    SciPy's SVD returns it, and ``uf = V^T (J_h^T f) / s`` with
    ``J_h^T f = g_h``.
    """
    A = gram * np.outer(d, d)
    A[np.diag_indices_from(A)] += diag_h
    lam, Q = np.linalg.eigh(A)
    s = np.sqrt(np.maximum(lam[::-1], 0.0))
    V = Q[:, ::-1]
    proj = V.T.dot(g_h)
    uf = np.zeros_like(s)
    np.divide(proj, s, out=uf, where=s > 0)
    return s, V, uf


def least_squares_huber(fun, jac, x0, lb, ub, f_scale, max_nfev, tol) -> TRFResult:
    """SciPy's bounded TRF at ``x_scale=1`` with ``loss="huber"``.

    ``ftol = xtol = gtol = tol``.  ``lb``/``ub`` are arrays the size of
    ``x0`` (``-inf``/``inf`` where unbounded); ``x0`` must lie within
    them.  ``fun`` must return at least ``len(x0)`` residuals.
    """
    x0 = _make_strictly_feasible(np.asarray(x0, dtype=float), lb, ub)
    x = x0.copy()
    f = fun(x)
    if not np.all(np.isfinite(f)):
        raise ValueError("Residuals are not finite in the initial point.")
    nfev = 1
    m = len(f)

    cost, row_scale, f = _huber_scaled(f, f_scale)
    J = jac(x).scale_rows(row_scale)
    g, gram = J.normal(f)

    v, _ = _cl_scaling_vector(x, g, lb, ub)
    Delta = norm(x0 / v**0.5)
    if Delta == 0:
        Delta = 1.0

    alpha = 0.0
    status = None
    while True:
        v, dv = _cl_scaling_vector(x, g, lb, ub)
        g_norm = norm(g * v, ord=np.inf)
        if g_norm < tol:
            status = 1
        if status is not None or nfev == max_nfev:
            break

        d = v**0.5
        diag_h = g * dv
        g_h = d * g
        s, V, uf = _normal_decomposition(gram, d, diag_h, g_h)

        def jh(p):
            return J.matvec(d * p)

        # theta controls the step back from the bounds.
        theta = max(0.995, 1 - g_norm)

        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            p_h, alpha, _ = _solve_lsq_trust_region(m, uf, s, V, Delta, initial_alpha=alpha)
            p = d * p_h
            step, step_h, predicted_reduction = _select_step(
                x, jh, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta
            )

            x_new = _make_strictly_feasible(x + step, lb, ub, rstep=0)
            f_new = fun(x_new)
            nfev += 1

            step_h_norm = norm(step_h)
            if not np.all(np.isfinite(f_new)):
                Delta = 0.25 * step_h_norm
                continue

            cost_new = _huber_cost(f_new, f_scale)
            actual_reduction = cost - cost_new
            Delta_new, ratio = _update_tr_radius(
                Delta, actual_reduction, predicted_reduction, step_h_norm, step_h_norm > 0.95 * Delta
            )
            status = _check_termination(
                actual_reduction, cost, norm(step), norm(x), ratio, tol, tol
            )
            if status is not None:
                break

            alpha *= Delta / Delta_new
            Delta = Delta_new

        if actual_reduction > 0:
            x = x_new
            cost = cost_new
            _, row_scale, f = _huber_scaled(f_new, f_scale)
            J = jac(x).scale_rows(row_scale)
            g, gram = J.normal(f)

    return TRFResult(x=x, cost=float(cost), nfev=nfev, status=0 if status is None else status)
