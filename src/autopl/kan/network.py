"""Spline-edge network: every edge carries its own learnable 1-d function.

An edge maps a scalar input x to w_base * silu(x) + w_spline * spline(x)
where the spline is a B-spline curve over a fixed interval; layer inputs
are clamped to that interval first.  Node values are plain sums of their
incoming edge outputs, so the whole network is a composition of sums of
univariate functions.  The network takes its inputs in original units:
it divides each input column by its own scale before the first layer,
so the spline interval sees columns of modest size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from autopl.kan.bspline import BSplineBasis


@dataclass(frozen=True)
class KanConfig:
    shape: tuple[int, ...]
    grid_size: int = 5
    order: int = 3
    steps: int = 100
    reg_lambda: float = 0.0
    seed: int = 0
    lo: float = -1.0
    hi: float = 1.05

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(w) for w in self.shape))
        if len(self.shape) < 2 or any(w < 1 for w in self.shape):
            raise ValueError("shape needs at least two positive widths")
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if self.reg_lambda < 0:
            raise ValueError("reg_lambda must be non-negative")


def silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


def silu_prime(x: np.ndarray) -> np.ndarray:
    s = 1.0 / (1.0 + np.exp(-x))
    return s * (1.0 + x * (1.0 - s))


class KanLayer:
    """One dense block of spline edges between two node rows."""

    def __init__(self, basis: BSplineBasis, w_base: np.ndarray,
                 w_spline: np.ndarray, coeffs: np.ndarray,
                 prune_mask: np.ndarray | None = None):
        self.basis = basis
        self.w_base = np.asarray(w_base, dtype=float)
        self.w_spline = np.asarray(w_spline, dtype=float)
        self.coeffs = np.asarray(coeffs, dtype=float)
        d_in, d_out = self.w_base.shape
        if self.w_spline.shape != (d_in, d_out):
            raise ValueError("w_spline shape mismatch")
        if self.coeffs.shape != (d_in, d_out, basis.n_basis):
            raise ValueError("coeffs shape mismatch")
        if prune_mask is None:
            prune_mask = np.ones((d_in, d_out), dtype=bool)
        self.prune_mask = np.asarray(prune_mask, dtype=bool)
        if self.prune_mask.shape != (d_in, d_out):
            raise ValueError("prune_mask shape mismatch")

    @property
    def d_in(self) -> int:
        return self.w_base.shape[0]

    @property
    def d_out(self) -> int:
        return self.w_base.shape[1]

    def prepare(self, X: np.ndarray) -> dict:
        """The parameter-free part of a forward pass over X: the clamped
        input, its SiLU, the design matrix and the order-(k-1) basis
        window the input gradient is taken from."""
        X = np.asarray(X, dtype=float)
        xc = np.clip(X, self.basis.lo, self.basis.hi)
        n, d_in = xc.shape
        flat_x = xc.ravel()
        lower = self.basis.lower(flat_x)
        flat = self.basis.design_from_lower(lower, flat_x)
        return {"X": X, "xc": xc, "s": silu(xc), "lower": lower,
                "b": flat.reshape(n, d_in, self.basis.n_basis)}

    def forward(self, prepared: dict):
        """Node outputs (N, d_out) and the cache for backprop, from
        `prepare(X)` of the layer input X."""
        s, b = prepared["s"], prepared["b"]
        spl = np.einsum("nim,ijm->nij", b, self.coeffs)
        edge = self.prune_mask * (self.w_base * s[:, :, None]
                                  + self.w_spline * spl)
        return edge.sum(axis=1), {**prepared, "spl": spl, "edge": edge}

    def backward(self, cache: dict, d_out: np.ndarray,
                 d_edge_extra: np.ndarray | None = None,
                 input_grad: bool = True):
        """Gradients for one layer.

        d_out is dL/d(node outputs), d_edge_extra an optional direct
        dL/d(edge output) term (used by the edge-sparsity penalty).
        Returns the gradients in w_base, w_spline and coeffs, in that
        order, and dL/dX of the layer input, which is None when
        `input_grad` is false.
        """
        xc, s, b, spl = cache["xc"], cache["s"], cache["b"], cache["spl"]
        d_edge = np.broadcast_to(d_out[:, None, :],
                                 (xc.shape[0], self.d_in, self.d_out)).copy()
        if d_edge_extra is not None:
            d_edge += d_edge_extra
        d_edge *= self.prune_mask
        g_wb = np.einsum("nij,ni->ij", d_edge, s)
        g_ws = np.einsum("nij,nij->ij", d_edge, spl)
        g_c = np.einsum("nij,nim->ijm", d_edge * self.w_spline, b)
        grads = (g_wb, g_ws, g_c)
        if not input_grad:
            return grads, None
        # input gradient: through the base path and the spline path;
        # clamping zeroes it outside the interval
        flat_d = self.basis.derivative_from_lower(cache["lower"])
        db = flat_d.reshape(xc.shape[0], self.d_in, self.basis.n_basis)
        dspl_dx = np.einsum("nim,ijm->nij", db, self.coeffs)
        d_xc = silu_prime(xc) * np.einsum("nij,ij->ni", d_edge, self.w_base)
        d_xc += np.einsum("nij,nij->ni", d_edge * self.w_spline, dspl_dx)
        inside = (cache["X"] > self.basis.lo) & (cache["X"] < self.basis.hi)
        d_x = d_xc * inside
        return grads, d_x


class KanNetwork:
    """Spline layers behind a per-input divisor, `input_scale` (all ones
    unless given).

    The network owns its parameters as one float64 vector `theta`, laid
    out by layer as w_base, w_spline, coeffs; each layer's three arrays
    are views of it.  The constructor copies the given layers' arrays
    and prune masks, so a network never shares storage with the layers
    it was built from or with its copies.
    """

    def __init__(self, layers: Sequence[KanLayer], config: KanConfig,
                 input_scale: Sequence[float] | None = None):
        self.config = config
        widths = [layers[0].d_in] + [l.d_out for l in layers]
        if tuple(widths) != config.shape:
            raise ValueError("layer widths do not match config shape")
        for a, b in zip(layers, layers[1:]):
            if a.d_out != b.d_in:
                raise ValueError("adjacent layer widths disagree")
        s = np.array(np.ones(widths[0]) if input_scale is None
                     else input_scale, dtype=float)
        if s.shape != (widths[0],) or not np.all((s > 0) & (s < np.inf)):
            raise ValueError("input_scale needs one finite positive "
                             "divisor per input")
        self.input_scale = s
        arrays = [a for l in layers for a in (l.w_base, l.w_spline, l.coeffs)]
        self._shapes = [a.shape for a in arrays]
        self.theta = np.concatenate([a.ravel() for a in arrays])
        self.layers = [KanLayer(l.basis, *views, l.prune_mask.copy())
                       for l, views in zip(layers, self.split(self.theta))]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.config.shape

    def split(self, theta: np.ndarray) -> list[tuple[np.ndarray, ...]]:
        """Each layer's (w_base, w_spline, coeffs) views of a vector laid
        out as `theta`."""
        ends = np.cumsum([np.prod(shape) for shape in self._shapes])[:-1]
        parts = [part.reshape(shape)
                 for part, shape in zip(np.split(theta, ends), self._shapes)]
        return list(zip(parts[0::3], parts[1::3], parts[2::3]))

    def prepare(self, X: np.ndarray) -> dict:
        """`layers[0].prepare` of X divided by the input scale: the only
        place the network scales its input."""
        return self.layers[0].prepare(X / self.input_scale)

    def forward(self, X: np.ndarray, first: dict | None = None):
        """Output (N, d_out) and every layer's cache.

        `first` is `prepare(X)`, for callers that evaluate the same input
        under many parameter settings.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.shape[0]:
            raise ValueError(f"expected (n, {self.shape[0]}) input")
        prepared = self.prepare(X) if first is None else first
        caches = []
        for layer in self.layers:
            if caches:
                prepared = layer.prepare(h)
            h, cache = layer.forward(prepared)
            caches.append(cache)
        return h, caches

    def predict(self, X: np.ndarray) -> np.ndarray:
        out, _ = self.forward(X)
        if out.shape[1] != 1:
            raise ValueError("predict needs a single output node")
        return out[:, 0]

    def copy(self) -> "KanNetwork":
        return KanNetwork(self.layers, self.config, self.input_scale)

    # the flat parameter vector, for whole-network optimizers
    def get_params(self) -> np.ndarray:
        return self.theta.copy()

    def set_params(self, theta: np.ndarray) -> None:
        if np.shape(theta) != self.theta.shape:
            raise ValueError("parameter vector length mismatch")
        self.theta[...] = theta


def build_network(config: KanConfig,
                  input_scale: Sequence[float] | None = None) -> KanNetwork:
    """Fresh network with small random spline curves.

    Base weights scale with 1/sqrt(fan-in) so node sums start modest;
    spline coefficients get low-amplitude noise to break symmetry.
    `input_scale` divides each input column (default: all ones).
    """
    rng = np.random.default_rng(config.seed)
    basis = BSplineBasis(config.grid_size, config.order, config.lo, config.hi)
    layers = []
    for d_in, d_out in zip(config.shape[:-1], config.shape[1:]):
        w_base = rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_in, d_out))
        w_spline = np.ones((d_in, d_out))
        coeffs = rng.normal(0.0, 0.1, size=(d_in, d_out, basis.n_basis))
        layers.append(KanLayer(basis, w_base, w_spline, coeffs))
    return KanNetwork(layers, config, input_scale)
