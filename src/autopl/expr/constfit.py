"""Numeric fitting of constant placeholders inside an expression tree."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from autopl.expr.tree import ExpressionTree, evaluate, prepare

_FIT_MAXITER = 100  # Nelder-Mead iterations per search
_XATOL, _FATOL = 1e-8, 1e-10
_STARTS = (1.0, 0.1)  # every slot's value at each search's start
_WITNESSES = 16  # most rows a dead-end check evaluates the path on


@dataclass(frozen=True)
class FitResult:
    tree: ExpressionTree
    mse: float
    fittable: bool


def _nelder_mead(func: Callable[[np.ndarray], float], x0: np.ndarray,
                 maxiter: int, xatol: float, fatol: float
                 ) -> tuple[list[float], float]:
    """scipy 1.17's ``_minimize_neldermead`` step for step, on lists:
    coefficients 1, 2, 0.5 and 0.5, scipy's initial simplex, the
    xatol/fatol stop and ``maxiter`` without a call limit.  Every product
    and sum is the one scipy's array expressions compute, and the simplex
    is re-sorted in ``np.argsort``'s order, so ``x`` and ``fun`` come out
    the same: distinct values have one order, which ``sorted`` finds
    faster; ties and NaN go to ``np.argsort`` itself, which is not stable
    on every machine.  Returns the best vertex and its value."""
    start = [float(v) for v in x0]
    n = len(start)
    sim = [start]
    for k in range(n):
        y = list(start)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [func(np.array(x)) for x in sim]

    def resort() -> None:
        # NaN is tested value by value: fsim == fsim holds even with a
        # NaN in it, as list equality checks identity first
        if all(f == f for f in fsim) and len(set(fsim)) == n + 1:
            ind = sorted(range(n + 1), key=fsim.__getitem__)
        else:
            ind = np.argsort(fsim).tolist()
        sim[:] = [sim[i] for i in ind]
        fsim[:] = [fsim[i] for i in ind]

    # scipy sorts the first simplex twice
    resort()
    resort()
    for _ in range(1, maxiter):
        # a NaN difference (inf - inf) fails its test, as in np.max
        best, fbest = sim[0], fsim[0]
        if (all(abs(a - b) <= xatol for x in sim[1:] for a, b in zip(x, best))
                and all(abs(fbest - f) <= fatol for f in fsim[1:])):
            break
        # np.add.reduce(sim[:-1], 0): the rows summed in order
        xbar = list(sim[0])
        for x in sim[1:-1]:
            xbar = [a + b for a, b in zip(xbar, x)]
        xbar = [a / n for a in xbar]
        worst = sim[-1]
        xr = [2 * a - 1 * b for a, b in zip(xbar, worst)]
        fxr = func(np.array(xr))
        if fxr < fsim[0]:
            xe = [3 * a - 2 * b for a, b in zip(xbar, worst)]
            fxe = func(np.array(xe))
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = [1.5 * a - 0.5 * b for a, b in zip(xbar, worst)]
                fxc = func(np.array(xc))
                shrink = not fxc <= fxr
            else:
                xc = [0.5 * a + 0.5 * b for a, b in zip(xbar, worst)]
                fxc = func(np.array(xc))
                shrink = not fxc < fsim[-1]
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = [a + 0.5 * (b - a) for a, b in zip(best, sim[j])]
                    fsim[j] = func(np.array(sim[j]))
            else:
                sim[-1], fsim[-1] = xc, fxc
        resort()
    return sim[0], fsim[0]


@functools.lru_cache(maxsize=64)
def _dead_end_path(k: int) -> np.ndarray:
    """Every distinct candidate both searches score when every score is
    inf, in the order first scored, as a read-only (m, k) matrix.  No
    score then beats another, so Nelder-Mead shrinks on every iteration
    and never stops early: the path depends only on its start and k,
    and is recorded by running the search itself."""
    seen: dict[bytes, None] = {}

    def record(c: np.ndarray) -> float:
        seen[c.tobytes()] = None
        return math.inf

    for start in _STARTS:
        _nelder_mead(record, np.full(k, start), _FIT_MAXITER, xatol=_XATOL,
                     fatol=_FATOL)
    return np.frombuffer(b"".join(seen), dtype=float).reshape(-1, k)


def _mse(pred: np.ndarray, y: np.ndarray) -> float:
    # np.mean's sum and division without its per-call overhead; any
    # non-finite prediction makes it non-finite, which scores inf
    sq = (pred - y) ** 2
    mse = float(np.add.reduce(sq) / sq.size)
    return mse if math.isfinite(mse) else math.inf


def optimize_constants(tree: ExpressionTree, X: np.ndarray,
                       y: np.ndarray) -> FitResult:
    """Fit constant slots by derivative-free simplex search.

    Runs Nelder-Mead for up to ``_FIT_MAXITER`` iterations from an
    all-ones start and once more from 0.1, keeping the better minimum.
    The constant-free subtrees are computed once per fit, and each
    distinct candidate (by its exact bytes) is scored once.  A tree
    whose predictions stay non-finite comes back unfittable, for the
    caller to give the floor reward.  When the tree's own constants
    leave rows non-finite, the points of ``_dead_end_path`` are first
    evaluated at once on up to ``_WITNESSES`` of those rows, and only
    the points finite on all of them are scored; if none scores below
    inf, neither search could either, and the fit returns without
    running them.
    """
    y = np.asarray(y, dtype=float)
    k = tree.n_constants
    scores: dict[bytes, float] = {}
    # wild candidate constants overflow or leave a function's domain:
    # bad vertices, not errors
    with np.errstate(all="ignore"):
        fixed = prepare(tree, X)

        def objective(c: np.ndarray) -> float:
            key = c.tobytes()
            mse = scores.get(key)
            if mse is None:
                mse = scores[key] = _mse(evaluate(tree, fixed, c), y)
            return mse

        best_c = np.asarray(tree.constants, dtype=float)
        pred = evaluate(tree, fixed, best_c)
        best_mse = scores[best_c.tobytes()] = _mse(pred, y)
        if k == 0:
            return FitResult(tree, best_mse, math.isfinite(best_mse))
        # rows the start leaves non-finite; none if only the sum overflowed
        witnesses = np.flatnonzero(~np.isfinite(pred))[:_WITNESSES]
        if witnesses.size:
            path = _dead_end_path(k)
            block = evaluate(tree, fixed.take(witnesses), path)
            settled = ~np.isfinite(block).all(axis=1)
            if all(objective(c) == math.inf for c in path[~settled]):
                return FitResult(tree, math.inf, False)
            scores.update((c.tobytes(), math.inf) for c in path[settled])
        for start in _STARTS:
            x, fun = _nelder_mead(objective, np.full(k, start),
                                  _FIT_MAXITER, xatol=_XATOL, fatol=_FATOL)
            if math.isfinite(fun) and fun < best_mse:
                best_mse = fun
                best_c = np.array(x)
    if not math.isfinite(best_mse):
        return FitResult(tree, math.inf, False)
    return FitResult(tree.with_constants(best_c), best_mse, True)
