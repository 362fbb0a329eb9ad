"""Nonlinear least squares for the symbolic read-out's edge refits.

A copy of scipy's `least_squares(fun, x0, jac=jac, max_nfev=max_nfev)`
(scipy 1.17.1, method "trf" without bounds) for the one configuration
the read-out uses: a callable Jacobian, no bounds, the linear loss,
unit variable scales, the exact trust-region solver (one SVD of each
Jacobian, then Moré's iteration for the Levenberg-Marquardt parameter;
J. J. Moré, Lecture Notes in Mathematics 630, 1977) and tolerances of
1e-8.  It takes scipy's steps bit for bit without scipy's per-call
wrappers: `np.dot` wherever scipy uses it, and the Euclidean and
infinity norms computed as `np.linalg.norm` computes them.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from autopl.kan import scipy_kernels

_EPS = np.finfo(float).eps
_TOL = 1e-8  # ftol, xtol and gtol


class LsqResult(NamedTuple):
    x: np.ndarray
    cost: float
    nfev: int
    status: int  # scipy's: 0 max_nfev, 1 gtol, 2 ftol, 3 xtol, 4 both


def _norm(v: np.ndarray):
    return np.sqrt(v.dot(v))


def _solve_trust_region(n, m, uf, s, V, Delta, alpha):
    """Step p and parameter alpha with (J^T J + alpha I) p = -J^T f and
    |p| within Delta, from the SVD of J: scipy's
    `solve_lsq_trust_region` with rtol 0.01 and at most 10 iterations."""
    def phi_and_derivative(alpha, suf, s, Delta):
        denom = s**2 + alpha
        p_norm = _norm(suf / denom)
        phi = p_norm - Delta
        phi_prime = -np.sum(suf ** 2 / denom**3) / p_norm
        return phi, phi_prime

    suf = s * uf
    # with J of full rank, try the Gauss-Newton step (m >= n here)
    full_rank = s[-1] > _EPS * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if _norm(p) <= Delta:
            return p, 0.0

    alpha_upper = _norm(suf) / Delta
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0, suf, s, Delta)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0
    if not full_rank and alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)

    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
        phi, phi_prime = phi_and_derivative(alpha, suf, s, Delta)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta
        if np.abs(phi) < 0.01 * Delta:
            break

    p = -V.dot(suf / (s**2 + alpha))
    # onto the trust region's boundary, so that p does not lie outside it
    p *= Delta / _norm(p)
    return p, alpha


def _update_radius(Delta, actual, predicted, step_norm, bound_hit):
    """New trust radius and the ratio of actual to predicted reduction."""
    if predicted > 0:
        ratio = actual / predicted
    elif predicted == actual == 0:
        ratio = 1
    else:
        ratio = 0
    if ratio < 0.25:
        Delta = 0.25 * step_norm
    elif ratio > 0.75 and bound_hit:
        Delta *= 2.0
    return Delta, ratio


def _termination(dF, F, dx_norm, x_norm, ratio):
    ftol_met = dF < _TOL * F and ratio > 0.25
    xtol_met = dx_norm < _TOL * (_TOL + x_norm)
    if ftol_met and xtol_met:
        return 4
    if ftol_met:
        return 2
    if xtol_met:
        return 3
    return None


def least_squares(fun: Callable[[np.ndarray], np.ndarray],
                  jac: Callable[[np.ndarray], np.ndarray],
                  x0: np.ndarray, max_nfev: int) -> LsqResult:
    """Minimize 0.5 * |fun(x)|^2 from x0 with at most `max_nfev` calls
    of `fun`, for at least as many residuals as parameters and x0 not
    all zero.  Residuals and Jacobians must be finite: like scipy, this
    raises ValueError when the residuals at x0 are not, and
    `numpy.linalg.LinAlgError` when an SVD does not converge."""
    x = np.atleast_1d(x0).astype(float)
    f = fun(x)
    if not np.all(np.isfinite(f)):
        raise ValueError("Residuals are not finite in the initial point.")
    J = jac(x)
    nfev = 1
    m, n = J.shape
    # scipy.linalg.svd(J, full_matrices=False): LAPACK gesdd with the
    # workspace size its query returns, called directly
    gesdd, gesdd_lwork = scipy_kernels.gesdd()
    lwork = int(gesdd_lwork(m, n, compute_uv=True,
                            full_matrices=False)[0].real)
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)
    Delta = _norm(x)
    alpha = 0.0
    status = None
    while True:
        if np.abs(g).max() < _TOL:
            status = 1
        if status is not None or nfev == max_nfev:
            break
        U, s, V, info = gesdd(J, compute_uv=True, lwork=lwork,
                              full_matrices=False, overwrite_a=False)
        if info > 0:
            raise np.linalg.LinAlgError("SVD did not converge")
        V = V.T
        uf = U.T.dot(f)

        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            step, alpha = _solve_trust_region(n, m, uf, s, V, Delta, alpha)
            Js = J.dot(step)
            predicted_reduction = -(0.5 * np.dot(Js, Js) + np.dot(step, g))
            x_new = x + step
            f_new = fun(x_new)
            nfev += 1
            step_norm = _norm(step)
            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            Delta_new, ratio = _update_radius(
                Delta, actual_reduction, predicted_reduction, step_norm,
                step_norm > 0.95 * Delta)
            status = _termination(actual_reduction, cost, step_norm,
                                  _norm(x), ratio)
            if status is not None:
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new

        if actual_reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            J = jac(x)
            g = J.T.dot(f)
    return LsqResult(x, float(cost), nfev, 0 if status is None else status)
