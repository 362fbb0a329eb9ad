"""Whole-network training, edge importance, and pruning.

Training is full-batch: mean squared error plus an L1 penalty on mean
absolute edge outputs, minimized with bounded-memory BFGS so the step
count in the config is the only schedule knob.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from autopl.errors import TrainingError
from autopl.kan.network import KanNetwork
from autopl.kan.scipy_kernels import minimize_lbfgsb


@dataclass(frozen=True)
class TrainResult:
    net: KanNetwork
    history: list[dict]
    final_mse: float


def _loss_and_grad(net: KanNetwork, X: np.ndarray, y2d: np.ndarray,
                   lamb: float, first: dict | None = None):
    """Loss, gradient (laid out as `net.theta`), MSE and penalty;
    `first` is `net.prepare(X)` when the caller has it."""
    out, caches = net.forward(X, first)
    n = X.shape[0]
    resid = out - y2d
    mse = float(np.mean(resid ** 2))
    d_y = (2.0 / resid.size) * resid
    reg = 0.0
    grad = np.empty_like(net.theta)
    views = net.split(grad)
    for li in range(len(net.layers) - 1, -1, -1):
        edge = caches[li]["edge"]
        extra = None
        if lamb > 0.0:
            reg += lamb * float(np.abs(edge).mean(axis=0).sum())
            extra = (lamb / n) * np.sign(edge)
        grads, d_y = net.layers[li].backward(caches[li], d_y, extra, li > 0)
        for view, g in zip(views[li], grads):
            view[...] = g
    return mse + reg, grad, mse, reg


def _shift_output(net: KanNetwork, offset: float) -> None:
    """Add a constant to the network output, exactly.

    Splines sum to one on the clamped interval, so a uniform shift of
    the last layer's coefficients moves the output by the same amount.
    """
    last = net.layers[-1]
    shiftable = last.prune_mask & (last.w_spline != 0.0)
    live = int(shiftable.sum())
    if live == 0:
        raise TrainingError("no trainable edge reaches the output node")
    delta = np.zeros_like(last.w_spline)
    delta[shiftable] = offset / (live * last.w_spline[shiftable])
    last.coeffs += delta[:, :, None]


def _scale_output(net: KanNetwork, factor: float) -> None:
    last = net.layers[-1]
    last.w_base *= factor
    last.coeffs *= factor


def train(net: KanNetwork, X: np.ndarray, y: np.ndarray) -> TrainResult:
    """Fit the network to (X, y) in place and report the loss history.

    Optimization runs against the standardized target: pathloss spans
    hundreds of dB, and chasing it in raw units forces the first layer
    far outside the spline interval where clamping kills gradients.
    The target mean and scale are folded back into the last layer
    afterwards, exactly, so predictions stay in original units.  The
    history reports MSE in original units; the regularizer sums mean
    absolute edge outputs in standardized space.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise ValueError("y must be 1-d and aligned with X")
    if net.shape[-1] != 1:
        raise ValueError("training expects a single output node")
    cfg = net.config
    mu = float(np.mean(y))
    sigma = float(np.std(y))
    if sigma == 0.0 or not np.isfinite(sigma):
        raise TrainingError("target is constant or non-finite")
    z2d = ((y - mu) / sigma)[:, None]

    # move the network itself into standardized space and zero its mean
    # prediction (exact; also maps an already-trained network back for
    # further training)
    _scale_output(net, 1.0 / sigma)
    _shift_output(net, -float(np.mean(net.predict(X))))

    history: list[dict] = []
    last: dict[str, float] = {}
    # the first layer sees X on every evaluation: scale and clamp it and
    # build its basis once, for this fit only
    first = net.prepare(X)

    def objective(theta: np.ndarray):
        net.set_params(theta)
        loss, grad, last["mse"], last["reg"] = _loss_and_grad(
            net, X, z2d, cfg.reg_lambda, first)
        return loss, grad

    def record(theta: np.ndarray):
        # L-BFGS-B ends each iteration on the point it evaluated last
        mse, reg = last["mse"], last["reg"]
        history.append({"step": len(history) + 1, "mse": mse * sigma ** 2,
                        "reg": reg, "loss": mse + reg})

    theta, fun = minimize_lbfgsb(objective, net.get_params(),
                                 maxiter=cfg.steps, maxcor=20, ftol=1e-14,
                                 gtol=1e-12, callback=record)
    net.set_params(theta)
    # fold mean and scale back so predictions are in original units
    _scale_output(net, sigma)
    _shift_output(net, mu)
    final_mse = float(np.mean((net.predict(X) - y) ** 2))
    if not np.isfinite(final_mse):
        raise TrainingError("training diverged to a non-finite loss")
    history.append({"step": len(history) + 1, "mse": final_mse,
                    "reg": float(fun) - final_mse / sigma ** 2,
                    "loss": float(fun)})
    return TrainResult(net=net, history=history, final_mse=final_mse)


def edge_importance(net: KanNetwork, X: np.ndarray) -> list[np.ndarray]:
    """Mean |edge output| per edge, scaled to [0, 1] within each layer."""
    _, caches = net.forward(X)
    scores = []
    for layer, cache in zip(net.layers, caches):
        imp = np.abs(cache["edge"]).mean(axis=0) * layer.prune_mask
        top = imp.max()
        scores.append(imp / top if top > 0 else imp)
    return scores


def prune(net: KanNetwork, X: np.ndarray, threshold: float = 0.01) -> KanNetwork:
    """New network with low-importance edges masked out.

    Importances are relative within each layer, so the threshold is a
    fraction of the strongest edge.  Refuses to empty a layer.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    scores = edge_importance(net, X)
    out = net.copy()
    for layer, imp in zip(out.layers, scores):
        keep = layer.prune_mask & (imp >= threshold)
        if not keep.any():
            raise TrainingError("pruning would remove every edge in a layer")
        layer.prune_mask = keep
    return out
