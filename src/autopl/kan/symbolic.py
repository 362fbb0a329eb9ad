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
tie-break, fitted simplest first so that an edge stops at the first
complexity level that must win; the surviving affine parameters can be
retrained end to end, and the whole symbolic network flattens into one
expression tree with the network's input scale folded back in.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from autopl import workers
from autopl.expr.tokens import Token
from autopl.expr.tree import ExpressionTree
from autopl.kan import lsq
from autopl.kan.network import KanNetwork
from autopl.kan.scipy_kernels import minimize_lbfgsb

_LN10 = float(np.log(10.0))


@dataclass(frozen=True)
class SymbolicEdge:
    """One candidate shape for an edge function: f, its derivative, and
    `tokens`, which writes f(u) in prefix form around u's tokens (the zero
    shape has none)."""

    name: str
    complexity: int
    fn: Callable[[np.ndarray], np.ndarray]
    dfn: Callable[[np.ndarray], np.ndarray]
    tokens: Callable[[tuple[Token, ...]], tuple[Token, ...]] | None = None


EDGE_FAMILIES: dict[str, SymbolicEdge] = {
    "zero": SymbolicEdge("zero", 0, lambda u: np.zeros_like(u),
                         lambda u: np.zeros_like(u)),
    "identity": SymbolicEdge("identity", 1, lambda u: u,
                             lambda u: np.ones_like(u), lambda t: t),
    "square": SymbolicEdge("square", 2, lambda u: u * u, lambda u: 2.0 * u,
                           lambda t: (Token.unary("square"),) + t),
    "cube": SymbolicEdge("cube", 3, lambda u: u ** 3, lambda u: 3.0 * u * u,
                         lambda t: (Token.binary("mul"), Token.unary("square"))
                         + t + t),
    "sqrt": SymbolicEdge("sqrt", 2, np.sqrt, lambda u: 0.5 / np.sqrt(u),
                         lambda t: (Token.unary("sqrt"),) + t),
    "reciprocal": SymbolicEdge(
        "reciprocal", 2, lambda u: 1.0 / u, lambda u: -1.0 / (u * u),
        lambda t: (Token.binary("div"), Token.literal(1.0)) + t),
    "log10": SymbolicEdge("log10", 2, np.log10, lambda u: 1.0 / (u * _LN10),
                          lambda t: (Token.unary("log10"),) + t),
    "exp": SymbolicEdge("exp", 2, np.exp, np.exp,
                        lambda t: (Token.unary("exp"),) + t),
    "sin": SymbolicEdge("sin", 3, np.sin, np.cos,
                        lambda t: (Token.unary("sin"),) + t),
    "cos": SymbolicEdge("cos", 3, np.cos, lambda u: -np.sin(u),
                        lambda t: (Token.unary("cos"),) + t),
}

# how much R2 a more complex shape must gain to beat a simpler one
_TIE_BREAK = 0.02
# an R2 no later fit can beat by the tie-break: `_r2` is at most 1, and
# `_start`'s cov^2 / (var_f * var_y) rounds at most a few ulps above 1,
# far inside the 1e-9 margin
_SETTLED = 1.0 + 1e-9 - _TIE_BREAK
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
        res = lsq.least_squares(residual, jacobian,
                                np.array([a0, b0, c0, d0]), max_nfev=200)
    except (ValueError, np.linalg.LinAlgError):
        return None
    with np.errstate(all="ignore"):
        pred = res.x[2] * fam.fn(res.x[0] * x + res.x[1]) + res.x[3]
    if not np.all(np.isfinite(pred)):
        return None
    return (*map(float, res.x), _r2(pred, y))


def fit_edge(x: np.ndarray, y: np.ndarray,
             families: Sequence[str] | None = None) -> EdgeFit:
    """Best-matching shape for one sampled edge curve.

    Shapes within 0.02 R2 of the leader resolve toward the simplest;
    a flat response short-circuits to the zero shape with offset d.
    Families are fitted level by level in order of complexity, in
    library order within a level.  Once a level's best shape is within
    the tie-break of R2 = 1 (no shape scores above it, bar `_start`'s
    rounding) and every simpler shape is already outside the tie-break
    of it, no later fit can change the winner, so the remaining levels
    are skipped.
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
    levels = sorted({EDGE_FAMILIES[n].complexity for n in names if n != "zero"})
    for level in levels:
        simpler = len(candidates)
        for name in names:
            fam = EDGE_FAMILIES[name]
            if name == "zero" or fam.complexity != level:
                continue
            start = _start(fam, x, y)
            if start is None:
                continue
            refined = _refine(fam, x, y, start)
            best = (refined if refined is not None and refined[4] > start[4]
                    else start)
            candidates.append(EdgeFit(name, *best))
        if len(candidates) > simpler:
            # with every simpler shape out of the tie, the top is this level's
            top = max(c.r2 for c in candidates)
            if top >= _SETTLED and all(c.r2 < top - _TIE_BREAK
                                       for c in candidates[:simpler]):
                break
    if not candidates:
        return EdgeFit("zero", 0.0, 0.0, 0.0, ym, _r2(np.full_like(y, ym), y))
    top = max(c.r2 for c in candidates)
    near = [c for c in candidates if c.r2 >= top - _TIE_BREAK]
    near.sort(key=lambda c: (c.complexity, -c.r2))
    return near[0]


class SymbolicKan:
    """A spline network with every edge replaced by a fitted shape; like
    the network, it divides each input column by `input_scale` first.

    Immutable, and held as arrays per layer: `families[l]` and `r2[l]`
    give each edge's family name and read-out R2, `(d_in, d_out)`, and
    `params[l]` is the `(d_in, d_out, 4)` view of each edge's (a, b, c, d)
    in `theta`, one read-only vector laid out by layer, then i, then j.
    `fits` builds the same edges as nested tuples of `EdgeFit`s when read.
    """

    def __init__(self, shape: tuple[int, ...],
                 fits: Sequence[Sequence[Sequence[EdgeFit]]],
                 masks: Sequence[np.ndarray],
                 input_scale: Sequence[float] | None = None):
        self.shape = tuple(shape)
        self.masks = tuple(_read_only(np.array(m, dtype=bool)) for m in masks)
        widths = list(zip(self.shape[:-1], self.shape[1:]))
        if (len(fits) != len(widths) or len(self.masks) != len(widths)
                or any(m.shape != w or len(grid) != w[0]
                       or any(len(row) != w[1] for row in grid)
                       for m, w, grid in zip(self.masks, widths, fits))):
            raise ValueError(f"edge fits and masks do not chain the "
                             f"widths {self.shape}")
        self.families = tuple(
            _read_only(np.array([[f.name for f in row] for row in grid]))
            for grid in fits)
        self.r2 = tuple(
            _read_only(np.array([[f.r2 for f in row] for row in grid],
                                dtype=float)) for grid in fits)
        # each layer's active edges by family, in order of first
        # appearance: family and the flat indices of its edges
        self.groups = tuple(
            tuple((EDGE_FAMILIES[name],
                   np.flatnonzero(mask.ravel() & (names.ravel() == name)))
                  for name in dict.fromkeys(names[mask].tolist()))
            for names, mask in zip(self.families, self.masks))
        self.input_scale = _read_only(
            np.ones(self.shape[0]) if input_scale is None
            else np.array(input_scale, dtype=float))
        self._set_theta([(f.a, f.b, f.c, f.d) for grid in fits
                         for row in grid for f in row])

    def _set_theta(self, theta) -> None:
        self.theta = _read_only(np.array(theta, dtype=float).reshape(-1))
        self.params = tuple(self.split(self.theta))

    def split(self, theta: np.ndarray) -> list[np.ndarray]:
        """Each layer's (d_in, d_out, 4) view of a vector laid out as
        `theta`."""
        ends = np.cumsum([m.size * 4 for m in self.masks])[:-1]
        return [part.reshape(m.shape + (4,))
                for part, m in zip(np.split(theta, ends), self.masks)]

    def with_theta(self, theta: np.ndarray) -> "SymbolicKan":
        """This network with its edge parameters read from a copy of
        `theta`, laid out as `self.theta`."""
        new = copy.copy(self)
        new._set_theta(theta)
        return new

    @property
    def fits(self) -> tuple[tuple[tuple[EdgeFit, ...], ...], ...]:
        """Every edge as an `EdgeFit`, indexed [layer][i][j], built from
        `families`, `params` and `r2`."""
        return tuple(
            tuple(tuple(EdgeFit(str(n), *map(float, q), float(r))
                        for n, q, r in zip(*row))
                  for row in zip(names, p, r2))
            for names, p, r2 in zip(self.families, self.params, self.r2))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return _forward(self, X)[0][-1][:, 0]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# a larger X is read out on this many evenly spaced rows, plus each
# layer input's extreme rows
_READOUT_ROWS = 512


def auto_symbolic(net: KanNetwork, X: np.ndarray) -> SymbolicKan:
    """Fit a shape from the whole library to every active edge from its
    observed input/output pairs.

    Edge inputs are taken after clamping, exactly as the spline saw them,
    so a hidden layer's edges are fitted on the spline network's own
    values and need not wait for the layers before them: every active
    edge of every layer goes through one `workers.ordered_map` call, on
    every available CPU; pruned edges become zero shapes.
    """
    X = np.asarray(X, dtype=float)
    _, caches = net.forward(X)
    if X.shape[0] > _READOUT_ROWS:
        pick = np.linspace(0, X.shape[0] - 1, _READOUT_ROWS).astype(int)
        # keep every layer input's extreme rows: a shape fitted without
        # them can put its singularity between the sampled inputs' range
        # and the full one
        ends = [arg(cache["X"], axis=0) for cache in caches
                for arg in (np.argmin, np.argmax)]
        pick = np.union1d(pick, np.concatenate(ends))
    else:
        pick = np.arange(X.shape[0])
    rows = [(cache["xc"][pick], cache["edge"][pick]) for cache in caches]

    def fit(key: tuple[int, int, int]) -> EdgeFit:
        layer, i, j = key
        xc, edge = rows[layer]
        return fit_edge(xc[:, i], edge[:, i, j])

    masks = [layer.prune_mask for layer in net.layers]
    with workers.ordered_map(fit) as fit_all:
        fitted = fit_all([(li, i, j) for li, mask in enumerate(masks)
                          for i, j in np.argwhere(mask)])
        fits = [[[next(fitted) if mask[i, j]
                  else EdgeFit("zero", 0.0, 0.0, 0.0, 0.0, 1.0)
                  for j in range(mask.shape[1])]
                 for i in range(mask.shape[0])] for mask in masks]
    return SymbolicKan(net.shape, fits, masks, net.input_scale)


# ---------------------------------------------------------------------------
# affine retraining


def _by_family(fn: str, u: np.ndarray, groups) -> np.ndarray:
    """`fn` (or `dfn`) of every active edge's u, one call per family;
    zero on pruned edges."""
    out = np.zeros_like(u)
    flat_u, flat_out = u.reshape(-1, u.shape[-1]), out.reshape(-1, u.shape[-1])
    for fam, idx in groups:
        flat_out[idx] = getattr(fam, fn)(flat_u[idx])
    return out


def _forward(sym: SymbolicKan, X: np.ndarray,
             params: Sequence[np.ndarray] | None = None):
    """Node values of every layer, (rows, width), the scaled input first
    and the output last, and per layer its edges' u = a*h_i + b and f(u),
    (d_in, d_out, rows), f(u) zero on pruned edges; the edge parameters
    come from `params`, laid out as `sym.params` (default: those).  The
    only place the symbolic network evaluates its edges: one call of each
    family's function per layer, and each node sums its edges from zero
    in `i` order.  A pruned edge adds +0.0, which leaves a sum that starts
    from +0.0 bit for bit unchanged."""
    if params is None:
        params = sym.params
    # node values are kept as (width, rows), so that every edge's rows
    # are contiguous
    h = np.ascontiguousarray((np.asarray(X, dtype=float) / sym.input_scale).T)
    hs = [h]
    layers = []
    with np.errstate(all="ignore"):
        for groups, mask, p in zip(sym.groups, sym.masks, params):
            u = p[..., 0, None] * h[:, None, :] + p[..., 1, None]
            fu = _by_family("fn", u, groups)
            term = p[..., 2, None] * fu + p[..., 3, None]
            term[~mask] = 0.0
            h = np.zeros((mask.shape[1], h.shape[1]))
            for i in range(mask.shape[0]):
                h += term[i]
            hs.append(h)
            layers.append((u, fu))
    return [h.T for h in hs], layers


def _mse_and_grad(sym: SymbolicKan, X: np.ndarray, y: np.ndarray,
                  theta: np.ndarray | None = None):
    """Training MSE and its gradient in `theta`, laid out as `sym.theta`
    (default: that)."""
    params = sym.params if theta is None else sym.split(theta)
    hs, layers = _forward(sym, X, params)
    pred = hs[-1][:, 0]
    if not np.all(np.isfinite(pred)):
        return 1e30, np.zeros(sym.theta.size)
    n = y.size
    mse = float(np.mean((pred - y) ** 2))
    d_h = (2.0 / n) * (hs[-1].T - y)
    grads = []
    with np.errstate(all="ignore"):
        for li in range(len(params) - 1, -1, -1):
            u, fu = layers[li]
            p, mask = params[li], sym.masks[li]
            dfu = _by_family("dfn", u, sym.groups[li])
            # w * c * dfu, the chain factor shared by a, b and the input
            wcd = d_h * p[..., 2, None] * dfu
            g = np.empty(p.shape)
            # each edge's sum runs along its contiguous rows, pairwise,
            # as a 1-d nansum of those rows does
            g[..., 0] = np.nansum(wcd * hs[li].T[:, None, :], axis=-1)
            g[..., 1] = np.nansum(wcd, axis=-1)
            g[..., 2] = np.nansum(d_h * fu, axis=-1)
            g[..., 3] = np.sum(d_h, axis=-1)
            g[~mask] = 0.0
            grads.append(g)
            back = wcd * p[..., 0, None]
            back[~mask] = 0.0
            d_h = np.zeros((p.shape[0], n))
            # j outer, i inner, as in the forward pass
            for j in range(p.shape[1]):
                d_h += back[:, j]
    return mse, np.concatenate([g.ravel() for g in reversed(grads)])


def _polish_last_layer(sym: SymbolicKan, X: np.ndarray,
                       y: np.ndarray) -> SymbolicKan:
    """Closed-form refit of the output layer's scale and offset terms; `sym`
    itself when an output edge is non-finite or none is fitted."""
    _, layers = _forward(sym, X)
    mask = sym.masks[-1][:, 0]
    fitted = np.flatnonzero(mask & (sym.families[-1][:, 0] != "zero"))
    cols = list(layers[-1][1][fitted, 0])
    if not cols or not np.all(np.isfinite(cols)):
        return sym
    design = np.column_stack(cols + [np.ones(y.size)])
    sol, *_ = np.linalg.lstsq(design, y, rcond=None)
    # keep the total offset: spread the fitted intercept over the active
    # edges and zero the rest
    active = np.flatnonzero(mask)
    params = [p.copy() for p in sym.params]
    params[-1][fitted, 0, 2] = sol[:-1]
    params[-1][active, 0, 3] = float(sol[-1]) / active.size
    return sym.with_theta(np.concatenate([p.ravel() for p in params]))


# L-BFGS-B iterations of the joint retune
_RETRAIN_STEPS = 200


def retrain_affine(sym: SymbolicKan, X: np.ndarray,
                   y: np.ndarray) -> tuple[SymbolicKan, float]:
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

    theta, _ = minimize_lbfgsb(
        lambda theta: _mse_and_grad(sym, X, y, theta), sym.theta,
        maxiter=_RETRAIN_STEPS, ftol=1e-14)
    # min keeps the first of equal candidates: a tie keeps the input
    best = min(sym, sym.with_theta(theta), key=mse_of)
    best = min(best, _polish_last_layer(best, X, y), key=mse_of)
    return best, mse_of(best)


# ---------------------------------------------------------------------------
# expression extraction


def _affine_tokens(a: float, b: float, child: tuple[Token, ...]) -> tuple[Token, ...]:
    out = child
    if a != 1.0:
        out = (Token.binary("mul"), Token.literal(a)) + out
    if b != 0.0:
        out = (Token.binary("add"),) + out + (Token.literal(b),)
    return out


def _edge_tokens(fit: EdgeFit, child: tuple[Token, ...],
                 input_divisor: float) -> tuple[Token, ...] | None:
    """Token sequence of c*f(a*x+b)+d, or None when it is exactly zero."""
    if fit.name == "zero" or fit.c == 0.0:
        return (Token.literal(fit.d),) if fit.d != 0.0 else None
    u = _affine_tokens(fit.a / input_divisor, fit.b, child)
    return _affine_tokens(fit.c, fit.d, EDGE_FAMILIES[fit.name].tokens(u))


def extract_expression(sym: SymbolicKan,
                       feature_names: Sequence[str]) -> ExpressionTree:
    """Flatten a symbolic network into a single expression tree.

    The network's input scale folds into the first-layer coefficients,
    so the tree evaluates on original-unit features.
    """
    if len(feature_names) != sym.shape[0]:
        raise ValueError("feature name count does not match input width")
    divisors = [float(v) for v in sym.input_scale]
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
                next_nodes.append((Token.literal(0.0),))
                continue
            acc = terms[0]
            for term in terms[1:]:
                acc = (Token.binary("add"),) + acc + term
            next_nodes.append(acc)
        nodes = next_nodes
    return ExpressionTree(nodes[0])
