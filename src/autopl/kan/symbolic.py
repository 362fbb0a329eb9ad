"""Symbolic read-out of trained spline edges.

Each edge's sampled (input, output) curve is matched against a small
library of shapes y = c * f(a*x + b) + d.  For every shape, algebra folds
one of the inner parameters a, b into the outer c, d, which a closed-form
least-squares fit solves, so each shape's starting point comes from a
closed form or a 1-d search of at most 200 candidates:

- identity: a linear fit;
- square: a quadratic fit, backed by a search over the vertex;
- cube: a search over the inflection point x = -b/a;
- exp: c*exp(a*x + b) = c'*exp(a*x), a search over a;
- sin and cos: c*sin(a*x + b) = c1*sin(a*x) + c2*cos(a*x), a search over a
  with c1, c2 fitted for each a and converted back to a phase b;
- log10, sqrt and reciprocal: the scale of a folds into c or d, leaving a
  search over where the singularity sits, outside the input range on
  either side, at distances spaced geometrically from the range.

Each start is refined by nonlinear least squares on all four parameters
with the analytic Jacobian.  Candidates are scored by R2 with a simplicity
tie-break, the surviving affine parameters can be retrained end to end,
and the whole symbolic network flattens into one expression tree with
dataset normalization folded back in.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy import optimize

from autopl.expr.tokens import Token
from autopl.expr.tree import ExpressionTree
from autopl.kan.network import KanNetwork

_LN10 = float(np.log(10.0))


@dataclass(frozen=True)
class SymbolicEdge:
    """One candidate shape for an edge function."""

    name: str
    complexity: int
    fn: Callable[[np.ndarray], np.ndarray]
    dfn: Callable[[np.ndarray], np.ndarray]


EDGE_FAMILIES: dict[str, SymbolicEdge] = {
    "zero": SymbolicEdge("zero", 0, lambda u: np.zeros_like(u),
                         lambda u: np.zeros_like(u)),
    "identity": SymbolicEdge("identity", 1, lambda u: u,
                             lambda u: np.ones_like(u)),
    "square": SymbolicEdge("square", 2, lambda u: u * u, lambda u: 2.0 * u),
    "cube": SymbolicEdge("cube", 3, lambda u: u ** 3, lambda u: 3.0 * u * u),
    "sqrt": SymbolicEdge("sqrt", 2, np.sqrt, lambda u: 0.5 / np.sqrt(u)),
    "reciprocal": SymbolicEdge("reciprocal", 2, lambda u: 1.0 / u,
                               lambda u: -1.0 / (u * u)),
    "log10": SymbolicEdge("log10", 2, np.log10, lambda u: 1.0 / (u * _LN10)),
    "exp": SymbolicEdge("exp", 2, np.exp, np.exp),
    "sin": SymbolicEdge("sin", 3, np.sin, np.cos),
    "cos": SymbolicEdge("cos", 3, np.cos, lambda u: -np.sin(u)),
}

# how much R2 a more complex shape must gain to beat a simpler one
_TIE_BREAK = 0.02
# rates a searched by exp (both signs) and by sin and cos (a > 0 suffices,
# the sign folds into b and c).  Edge inputs live in the clamp interval
# [-1, 1.05]; |a| up to 12 at step 0.125 keeps a trig start's phase error
# below 0.07 rad across it, and the steps include every a of a 97x97
# (a, b) grid at step 0.25, so these starts are never worse than that grid's
_GRID = np.linspace(0.125, 12.0, 96)
# distances of a singularity, vertex or inflection point from the input
# range, in units of the range's width
_DISTANCES = np.geomspace(1e-3, 1e3, 80)


@dataclass(frozen=True)
class EdgeFit:
    name: str
    a: float
    b: float
    c: float
    d: float
    r2: float

    @property
    def complexity(self) -> int:
        return EDGE_FAMILIES[self.name].complexity

    def __call__(self, x: np.ndarray) -> np.ndarray:
        fam = EDGE_FAMILIES[self.name]
        with np.errstate(all="ignore"):
            return self.c * fam.fn(self.a * np.asarray(x, float) + self.b) + self.d


def _r2(pred: np.ndarray, y: np.ndarray) -> float:
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        return 1.0 if np.allclose(pred, y, atol=1e-12) else 0.0
    ssr = float(np.sum((pred - y) ** 2))
    return 1.0 - ssr / sst


def _candidates(name: str, x: np.ndarray, y: np.ndarray):
    """Inner parameters (a, b) worth scoring for one family; the outer c
    and d of each are fitted in closed form afterwards."""
    lo, hi = float(x.min()), float(x.max())
    gap = (hi - lo or 1.0) * _DISTANCES
    # vertex or inflection points p, as (a, b) = (1, -p)
    points = np.concatenate([lo - gap, np.linspace(lo, hi, 40), hi + gap])
    if name == "identity":
        return np.array([1.0]), np.array([0.0])
    if name == "square":
        # c*(x - p)^2 + d with p the vertex of the least-squares parabola;
        # a nearly straight response puts p so far out that (x - p)^2
        # loses its x-dependence to rounding, so the vertex search backs it
        design = np.column_stack([x * x, x, np.ones_like(x)])
        (p2, p1, _), *_ = np.linalg.lstsq(design, y, rcond=None)
        if p2 != 0.0:
            points = np.append(points, -p1 / (2.0 * p2))
        return np.ones_like(points), -points
    if name == "cube":
        return np.ones_like(points), -points
    if name in ("log10", "sqrt", "reciprocal"):
        # u = x - lo + gap or u = hi + gap - x stays positive on the range
        return (np.repeat([1.0, -1.0], gap.size),
                np.concatenate([gap - lo, gap + hi]))
    if name == "exp":
        a = np.concatenate([-_GRID[::-1], _GRID])
        return a, np.zeros_like(a)
    if name in ("sin", "cos"):
        # least-squares c1*sin(a*x) + c2*cos(a*x) + d for every a, on
        # centred columns; then c*sin(a*x + b) = c*cos(b)*sin(a*x) +
        # c*sin(b)*cos(a*x) and c*cos(a*x + b) = c*cos(b)*cos(a*x) -
        # c*sin(b)*sin(a*x) give the phase
        ax = _GRID[:, None] * x[None, :]
        s = np.sin(ax)
        s -= s.mean(axis=1, keepdims=True)
        co = np.cos(ax)
        co -= co.mean(axis=1, keepdims=True)
        yc = y - y.mean()
        ss, cc = (s * s).sum(axis=1), (co * co).sum(axis=1)
        sc, sy, cy = (s * co).sum(axis=1), s @ yc, co @ yc
        with np.errstate(all="ignore"):
            det = ss * cc - sc * sc
            c1 = (cc * sy - sc * cy) / det
            c2 = (ss * cy - sc * sy) / det
        b = np.arctan2(c2, c1) if name == "sin" else np.arctan2(-c1, c2)
        return _GRID, b
    raise ValueError(f"no start search for family {name!r}")


def _start(fam: SymbolicEdge, x: np.ndarray, y: np.ndarray):
    """Best (a, b, c, d, r2) over the family's candidates, c/d by closed form."""
    aa, bb = _candidates(fam.name, x, y)
    with np.errstate(all="ignore"):
        fu = fam.fn(aa[:, None] * x[None, :] + bb[:, None])
    valid = np.all(np.isfinite(fu), axis=1)
    if not valid.any():
        return None
    fu = fu[valid]
    aa, bb = aa[valid], bb[valid]
    fm = fu.mean(axis=1)
    fu -= fm[:, None]
    yc = y - y.mean()
    var_f = np.mean(fu * fu, axis=1)
    cov = fu @ yc / y.size
    var_y = float(np.mean(yc * yc))
    ok = var_f > 1e-14
    if not ok.any() or var_y <= 0.0:
        return None
    r2 = np.zeros(len(aa))
    r2[ok] = cov[ok] ** 2 / (var_f[ok] * var_y)
    i = int(np.argmax(r2))
    if not ok[i]:
        return None
    c = float(cov[i] / var_f[i])
    d = float(y.mean() - c * fm[i])
    return float(aa[i]), float(bb[i]), c, d, float(r2[i])


def _refine(fam: SymbolicEdge, x, y, start):
    a0, b0, c0, d0, _ = start

    def residual(p):
        with np.errstate(all="ignore"):
            pred = p[2] * fam.fn(p[0] * x + p[1]) + p[3]
        return np.where(np.isfinite(pred), pred - y, 1e6)

    def jacobian(p):
        # d/d(a, b, c, d) of c*f(a*x + b) + d; rows held at the penalty
        # are constant
        with np.errstate(all="ignore"):
            u = p[0] * x + p[1]
            fu = fam.fn(u)
            slope = p[2] * fam.dfn(u)
            jac = np.column_stack([slope * x, slope, fu, np.ones_like(x)])
            jac[~np.isfinite(p[2] * fu + p[3])] = 0.0
        return np.where(np.isfinite(jac), jac, 0.0)

    try:
        res = optimize.least_squares(residual, np.array([a0, b0, c0, d0]),
                                     jac=jacobian, max_nfev=200)
    except (ValueError, np.linalg.LinAlgError):
        return None
    pred = res.x[2] * _safe_fn(fam, res.x[0] * x + res.x[1]) + res.x[3]
    if not np.all(np.isfinite(pred)):
        return None
    return (*map(float, res.x), _r2(pred, y))


def _safe_fn(fam: SymbolicEdge, u: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):
        return fam.fn(u)


def fit_edge(x: np.ndarray, y: np.ndarray,
             families: Sequence[str] | None = None) -> EdgeFit:
    """Best-matching shape for one sampled edge curve.

    Shapes within 0.02 R2 of the leader resolve toward the simplest;
    a flat response short-circuits to the zero shape with offset d.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 4:
        raise ValueError("need matching 1-d samples, at least 4 points")
    names = list(families) if families is not None else list(EDGE_FAMILIES)
    ym = float(y.mean())
    if float(np.var(y)) < 1e-24:
        return EdgeFit("zero", 0.0, 0.0, 0.0, ym, 1.0)

    candidates: list[EdgeFit] = []
    if "zero" in names:
        candidates.append(EdgeFit("zero", 0.0, 0.0, 0.0, ym,
                                  _r2(np.full_like(y, ym), y)))
    for name in names:
        if name == "zero":
            continue
        fam = EDGE_FAMILIES[name]
        start = _start(fam, x, y)
        if start is None:
            continue
        best = start
        refined = _refine(fam, x, y, start)
        if refined is not None and refined[4] > best[4]:
            best = refined
        candidates.append(EdgeFit(name, best[0], best[1], best[2], best[3],
                                  best[4]))
    if not candidates:
        return EdgeFit("zero", 0.0, 0.0, 0.0, ym, _r2(np.full_like(y, ym), y))
    top = max(c.r2 for c in candidates)
    near = [c for c in candidates if c.r2 >= top - _TIE_BREAK]
    near.sort(key=lambda c: (c.complexity, -c.r2))
    return near[0]


class SymbolicKan:
    """A spline network with every edge replaced by a fitted shape."""

    def __init__(self, shape: tuple[int, ...],
                 fits: list[list[list[EdgeFit]]],
                 masks: list[np.ndarray]):
        self.shape = tuple(shape)
        self.fits = fits
        self.masks = [np.asarray(m, dtype=bool) for m in masks]

    def forward(self, X: np.ndarray) -> np.ndarray:
        return _forward_with_cache(self, X)[-1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = self.forward(X)
        return out[:, 0]

    def copy(self) -> "SymbolicKan":
        fits = [[[f for f in row] for row in layer] for layer in self.fits]
        return SymbolicKan(self.shape, fits, [m.copy() for m in self.masks])


def auto_symbolic(net: KanNetwork, X: np.ndarray,
                  max_samples: int = 512,
                  families: Sequence[str] | None = None) -> SymbolicKan:
    """Fit a shape to every active edge from its observed input/output pairs.

    Edge inputs are taken after clamping, exactly as the spline saw them.
    Pruned edges become zero shapes.
    """
    X = np.asarray(X, dtype=float)
    _, caches = net.forward(X, want_caches=True)
    if X.shape[0] > max_samples:
        pick = np.linspace(0, X.shape[0] - 1, max_samples).astype(int)
        # keep every layer input's extreme rows: a shape fitted without
        # them can put its singularity between the sampled inputs' range
        # and the full one
        ends = [arg(cache["X"], axis=0) for cache in caches
                for arg in (np.argmin, np.argmax)]
        pick = np.union1d(pick, np.concatenate(ends))
    else:
        pick = np.arange(X.shape[0])
    fits: list[list[list[EdgeFit]]] = []
    for layer, cache in zip(net.layers, caches):
        xc = cache["xc"][pick]
        edge = cache["edge"][pick]
        layer_fits = []
        for i in range(layer.d_in):
            row = []
            for j in range(layer.d_out):
                if layer.prune_mask[i, j]:
                    row.append(fit_edge(xc[:, i], edge[:, i, j], families))
                else:
                    row.append(EdgeFit("zero", 0.0, 0.0, 0.0, 0.0, 1.0))
            layer_fits.append(row)
        fits.append(layer_fits)
    return SymbolicKan(net.shape, fits, [l.prune_mask for l in net.layers])


# ---------------------------------------------------------------------------
# affine retraining


def _flatten(sym: SymbolicKan) -> np.ndarray:
    vals = []
    for layer in sym.fits:
        for row in layer:
            for f in row:
                vals += [f.a, f.b, f.c, f.d]
    return np.asarray(vals)


def _unflatten(sym: SymbolicKan, theta: np.ndarray) -> None:
    pos = 0
    for layer in sym.fits:
        for row in layer:
            for idx, f in enumerate(row):
                row[idx] = replace(f, a=float(theta[pos]), b=float(theta[pos + 1]),
                                   c=float(theta[pos + 2]), d=float(theta[pos + 3]))
                pos += 4


def _forward_with_cache(sym: SymbolicKan, X: np.ndarray):
    """Node values of every layer, the input first and the output last."""
    hs = [np.asarray(X, dtype=float)]
    with np.errstate(all="ignore"):
        for fits_l, mask in zip(sym.fits, sym.masks):
            h = hs[-1]
            d_in, d_out = mask.shape
            out = np.zeros((h.shape[0], d_out))
            for j in range(d_out):
                for i in range(d_in):
                    if mask[i, j]:
                        out[:, j] += fits_l[i][j](h[:, i])
            hs.append(out)
    return hs


def _mse_and_grad(sym: SymbolicKan, X: np.ndarray, y: np.ndarray):
    hs = _forward_with_cache(sym, X)
    pred = hs[-1][:, 0]
    if not np.all(np.isfinite(pred)):
        return 1e30, np.zeros(_flatten(sym).size)
    n = y.size
    mse = float(np.mean((pred - y) ** 2))
    d_h = (2.0 / n) * (hs[-1] - y[:, None])
    grads: list[float] = []
    layer_grads = []
    with np.errstate(all="ignore"):
        for li in range(len(sym.fits) - 1, -1, -1):
            fits_l, mask = sym.fits[li], sym.masks[li]
            h = hs[li]
            d_in, d_out = mask.shape
            g_layer = np.zeros((d_in, d_out, 4))
            d_prev = np.zeros_like(h)
            for j in range(d_out):
                for i in range(d_in):
                    f = fits_l[i][j]
                    if not mask[i, j]:
                        continue
                    fam = EDGE_FAMILIES[f.name]
                    u = f.a * h[:, i] + f.b
                    fu = fam.fn(u)
                    dfu = fam.dfn(u)
                    w = d_h[:, j]
                    g_layer[i, j, 0] = np.nansum(w * f.c * dfu * h[:, i])
                    g_layer[i, j, 1] = np.nansum(w * f.c * dfu)
                    g_layer[i, j, 2] = np.nansum(w * fu)
                    g_layer[i, j, 3] = np.sum(w)
                    d_prev[:, i] += w * f.c * dfu * f.a
            layer_grads.append(g_layer)
            d_h = d_prev
    for g_layer in reversed(layer_grads):
        d_in, d_out, _ = g_layer.shape
        for i in range(d_in):
            for j in range(d_out):
                grads += list(g_layer[i, j])
    return mse, np.asarray(grads)


def _polish_last_layer(sym: SymbolicKan, X: np.ndarray, y: np.ndarray) -> None:
    """Closed-form refit of the output layer's scale and offset terms."""
    hs = _forward_with_cache(sym, X)
    h = hs[-2]
    fits_l, mask = sym.fits[-1], sym.masks[-1]
    d_in = mask.shape[0]
    cols = []
    idxs = []
    with np.errstate(all="ignore"):
        for i in range(d_in):
            f = fits_l[i][0]
            if not mask[i, 0] or f.name == "zero":
                continue
            fam = EDGE_FAMILIES[f.name]
            col = fam.fn(f.a * h[:, i] + f.b)
            if not np.all(np.isfinite(col)):
                return
            cols.append(col)
            idxs.append(i)
    if not cols:
        return
    design = np.column_stack(cols + [np.ones(y.size)])
    sol, *_ = np.linalg.lstsq(design, y, rcond=None)
    # keep the total offset: spread the fitted intercept over the active
    # edges and zero the rest
    active = [i for i in range(d_in) if mask[i, 0]]
    share = float(sol[-1]) / len(active)
    for i in active:
        f = fits_l[i][0]
        new_c = f.c
        if i in idxs:
            new_c = float(sol[idxs.index(i)])
        fits_l[i][0] = replace(f, c=new_c, d=share)


def retrain_affine(sym: SymbolicKan, X: np.ndarray, y: np.ndarray,
                   steps: int = 200) -> tuple[SymbolicKan, float]:
    """Re-fit every edge's (a, b, c, d) jointly against the target.

    Tries a gradient refinement plus a closed-form polish of the output
    layer, and returns whichever candidate has the lowest training MSE;
    the result is never worse than the input network.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)

    def mse_of(s: SymbolicKan) -> float:
        pred = s.predict(X)
        if not np.all(np.isfinite(pred)):
            return float("inf")
        return float(np.mean((pred - y) ** 2))

    best = sym.copy()
    best_mse = mse_of(best)

    work = sym.copy()

    def objective(theta):
        _unflatten(work, theta)
        return _mse_and_grad(work, X, y)

    res = optimize.minimize(objective, _flatten(work), jac=True,
                            method="L-BFGS-B",
                            options={"maxiter": steps, "ftol": 1e-14})
    _unflatten(work, res.x)
    if mse_of(work) < best_mse:
        best = work.copy()
        best_mse = mse_of(best)

    polished = best.copy()
    _polish_last_layer(polished, X, y)
    if mse_of(polished) < best_mse:
        best = polished
        best_mse = mse_of(best)
    return best, best_mse


# ---------------------------------------------------------------------------
# expression extraction


def _lit(v: float) -> Token:
    return Token.literal(v)


def _affine_tokens(a: float, b: float, child: tuple[Token, ...]) -> tuple[Token, ...]:
    out = child
    if a != 1.0:
        out = (Token.binary("mul"), _lit(a)) + out
    if b != 0.0:
        out = (Token.binary("add"),) + out + (_lit(b),)
    return out


_BODY_BUILDERS: dict[str, Callable[[tuple[Token, ...]], tuple[Token, ...]]] = {
    "identity": lambda u: u,
    "square": lambda u: (Token.unary("square"),) + u,
    "cube": lambda u: (Token.binary("mul"), Token.unary("square")) + u + u,
    "sqrt": lambda u: (Token.unary("sqrt"),) + u,
    "reciprocal": lambda u: (Token.binary("div"), _lit(1.0)) + u,
    "log10": lambda u: (Token.unary("log10"),) + u,
    "exp": lambda u: (Token.unary("exp"),) + u,
    "sin": lambda u: (Token.unary("sin"),) + u,
    "cos": lambda u: (Token.unary("cos"),) + u,
}


def _edge_tokens(fit: EdgeFit, child: tuple[Token, ...],
                 input_divisor: float) -> tuple[Token, ...] | None:
    """Token sequence of c*f(a*x+b)+d, or None when it is exactly zero."""
    if fit.name == "zero" or fit.c == 0.0:
        return (_lit(fit.d),) if fit.d != 0.0 else None
    a = fit.a / input_divisor
    u = _affine_tokens(a, fit.b, child)
    body = _BODY_BUILDERS[fit.name](u)
    if fit.c != 1.0:
        body = (Token.binary("mul"), _lit(fit.c)) + body
    if fit.d != 0.0:
        body = (Token.binary("add"),) + body + (_lit(fit.d),)
    return body


def extract_expression(sym: SymbolicKan, feature_names: Sequence[str],
                       norm: dict[str, float] | None = None) -> ExpressionTree:
    """Flatten a symbolic network into a single expression tree.

    When the training data was max-normalized, passing its divisor map
    folds the scaling into the first-layer coefficients so the tree
    evaluates on original-unit features.
    """
    if len(feature_names) != sym.shape[0]:
        raise ValueError("feature name count does not match input width")
    divisors = [float(norm.get(n, 1.0)) if norm else 1.0 for n in feature_names]
    nodes: list[tuple[Token, ...]] = [
        (Token.variable(name, i),) for i, name in enumerate(feature_names)]
    for li, (fits_l, mask) in enumerate(zip(sym.fits, sym.masks)):
        d_in, d_out = mask.shape
        next_nodes = []
        for j in range(d_out):
            terms: list[tuple[Token, ...]] = []
            for i in range(d_in):
                if not mask[i, j]:
                    continue
                div = divisors[i] if li == 0 else 1.0
                tk = _edge_tokens(fits_l[i][j], nodes[i], div)
                if tk is not None:
                    terms.append(tk)
            if not terms:
                next_nodes.append((_lit(0.0),))
                continue
            acc = terms[0]
            for term in terms[1:]:
                acc = (Token.binary("add"),) + acc + term
            next_nodes.append(acc)
        nodes = next_nodes
    return ExpressionTree(nodes[0])
