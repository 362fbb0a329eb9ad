"""Numeric fitting of constant placeholders inside an expression tree."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from autopl.expr.tree import ExpressionTree, evaluate

_FIT_MAXITER = 200


@dataclass(frozen=True)
class FitResult:
    tree: ExpressionTree
    mse: float
    fittable: bool


def _mse(tree: ExpressionTree, X: np.ndarray, y: np.ndarray,
         constants: np.ndarray | None = None) -> float:
    pred = evaluate(tree, X, constants)
    if not np.isfinite(pred).all():
        return float("inf")
    # wild candidate constants overflow the square; that is just a bad
    # simplex vertex, not an error
    with np.errstate(over="ignore"):
        return float(np.mean((pred - y) ** 2))


def optimize_constants(tree: ExpressionTree, X: np.ndarray, y: np.ndarray,
                       max_iter: int = _FIT_MAXITER) -> FitResult:
    """Fit constant slots by derivative-free simplex search.

    Runs Nelder-Mead from an all-ones start and once more from 0.1,
    keeping the better minimum.  Trees whose predictions stay non-finite
    everywhere come back flagged unfittable so callers can assign the
    floor reward instead of crashing.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    k = tree.n_constants
    if k == 0:
        mse = _mse(tree, X, y)
        return FitResult(tree, mse, np.isfinite(mse))

    def objective(c: np.ndarray) -> float:
        return _mse(tree, X, y, c)

    best_c = np.asarray(tree.constants, dtype=float)
    best_mse = objective(best_c)
    # errstate silences inf-inf chatter from the simplex convergence test
    # when a tree is non-finite everywhere
    with np.errstate(invalid="ignore", over="ignore"):
        for x0 in (np.ones(k), np.full(k, 0.1)):
            res = optimize.minimize(objective, x0, method="Nelder-Mead",
                                    options={"maxiter": max_iter, "xatol": 1e-8,
                                             "fatol": 1e-10})
            if np.isfinite(res.fun) and res.fun < best_mse:
                best_mse = float(res.fun)
                best_c = np.asarray(res.x, dtype=float)
    if not np.isfinite(best_mse):
        return FitResult(tree, float("inf"), False)
    return FitResult(tree.with_constants(best_c), best_mse, True)
