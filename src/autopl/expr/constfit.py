"""Numeric fitting of constant placeholders inside an expression tree."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from autopl.expr.tree import ExpressionTree, evaluate, prepare

_FIT_MAXITER = 200


@dataclass(frozen=True)
class FitResult:
    tree: ExpressionTree
    mse: float
    fittable: bool


def optimize_constants(tree: ExpressionTree, X: np.ndarray, y: np.ndarray,
                       max_iter: int = _FIT_MAXITER) -> FitResult:
    """Fit constant slots by derivative-free simplex search.

    Runs Nelder-Mead from an all-ones start and once more from 0.1,
    keeping the better minimum.  The tree's constant-free subtrees are
    computed once per fit; each candidate runs only the constant stage.
    Trees whose predictions stay non-finite everywhere come back flagged
    unfittable so callers can assign the floor reward instead of crashing.
    """
    y = np.asarray(y, dtype=float)
    k = tree.n_constants
    # wild candidate constants overflow or leave a function's domain, and
    # the simplex convergence test meets inf - inf when a tree is
    # non-finite everywhere: bad vertices, not errors
    with np.errstate(all="ignore"):
        fixed = prepare(tree, X)

        def objective(c: np.ndarray | None) -> float:
            # np.mean's sum and division without its per-call overhead;
            # any non-finite prediction makes the mean non-finite
            sq = (evaluate(tree, fixed, c) - y) ** 2
            mse = float(np.add.reduce(sq) / sq.size)
            return mse if math.isfinite(mse) else math.inf

        if k == 0:
            mse = objective(None)
            return FitResult(tree, mse, math.isfinite(mse))
        best_c = np.asarray(tree.constants, dtype=float)
        best_mse = objective(best_c)
        for x0 in (np.ones(k), np.full(k, 0.1)):
            res = optimize.minimize(objective, x0, method="Nelder-Mead",
                                    options={"maxiter": max_iter, "xatol": 1e-8,
                                             "fatol": 1e-10})
            if np.isfinite(res.fun) and res.fun < best_mse:
                best_mse = float(res.fun)
                best_c = np.asarray(res.x, dtype=float)
    if not math.isfinite(best_mse):
        return FitResult(tree, math.inf, False)
    return FitResult(tree.with_constants(best_c), best_mse, True)
