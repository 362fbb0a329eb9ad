"""Spline-edge network: forward mechanics, gradients, training, pruning,
checkpointing."""

import importlib
import json

import numpy as np
import pytest
from scipy import optimize

from autopl.errors import CheckpointError, TrainingError
from autopl.kan import (
    BSplineBasis,
    KanConfig,
    build_network,
    edge_importance,
    load_kan,
    prune,
    save_kan,
    train,
)
from autopl.kan.network import KanNetwork, silu, silu_prime
from bspline_reference import full_derivative, full_orders
from autopl.kan.train import (
    _loss_and_grad,
    _scale_output,
    _shift_output,
)


def _toy_net(shape=(2, 3, 1), seed=0, steps=60, **kw):
    cfg = KanConfig(shape=shape, grid_size=5, order=3, steps=steps, seed=seed, **kw)
    return build_network(cfg)


def test_forward_shapes_and_determinism():
    net = _toy_net()
    X = np.random.default_rng(0).uniform(-1, 1, (13, 2))
    out = net.forward(X)[0]
    assert out.shape == (13, 1)
    assert np.array_equal(out, net.forward(X)[0])
    net2 = _toy_net(seed=0)
    assert np.array_equal(out, net2.forward(X)[0])
    net3 = _toy_net(seed=1)
    assert not np.array_equal(out, net3.forward(X)[0])


def test_forward_rejects_wrong_width():
    net = _toy_net()
    with pytest.raises(ValueError):
        net.forward(np.zeros((4, 3)))


def test_inputs_clamped_to_spline_interval():
    net = _toy_net()
    lo, hi = net.layers[0].basis.lo, net.layers[0].basis.hi
    inside = net.predict(np.array([[hi, lo]]))
    beyond = net.predict(np.array([[hi + 50.0, lo - 50.0]]))
    assert np.allclose(inside, beyond)


def test_param_vector_round_trip():
    net = _toy_net()
    theta = net.get_params()
    net2 = _toy_net(seed=7)
    net2.set_params(theta)
    X = np.random.default_rng(1).uniform(-1, 1, (9, 2))
    assert np.array_equal(net.predict(X), net2.predict(X))
    with pytest.raises(ValueError):
        net.set_params(theta[:-1])


def test_params_are_one_vector_the_network_owns():
    X = np.random.default_rng(1).uniform(-1, 1, (9, 2))
    given = _toy_net(shape=(2, 3, 2, 1))
    net = KanNetwork(given.layers, given.config)
    # the layout: per layer, w_base, then w_spline, then coeffs
    theta = net.get_params()
    arrays = [a for l in net.layers for a in (l.w_base, l.w_spline, l.coeffs)]
    assert theta.tobytes() == np.concatenate([a.ravel()
                                              for a in arrays]).tobytes()
    # an in-place write into a layer's array is a write into the vector
    net.layers[1].coeffs[0, 1, 2] = 5.0
    assert net.split(net.get_params())[1][2][0, 1, 2] == 5.0
    # set_params shows in every layer's arrays; get_params is a copy
    new = np.arange(theta.size, dtype=float)
    net.set_params(new)
    for layer, views in zip(net.layers, net.split(new)):
        for arr, view in zip((layer.w_base, layer.w_spline, layer.coeffs),
                             views):
            assert arr.tobytes() == view.tobytes()
    net.get_params()[:] = -1.0
    assert net.get_params().tobytes() == new.tobytes()
    # no storage shared with the layers it was built from, or its copies
    out = net.predict(X)
    for other in (given, net.copy()):
        for layer in other.layers:
            for arr in (layer.w_base, layer.w_spline, layer.coeffs):
                arr[...] = 9.0
            layer.prune_mask[...] = False
        assert net.get_params().tobytes() == new.tobytes()
        assert all(layer.prune_mask.all() for layer in net.layers)
        assert net.predict(X).tobytes() == out.tobytes()
    for bad in (new[:-1], np.append(new, 0.0)):
        with pytest.raises(ValueError):
            net.set_params(bad)
    # one forward path: every layer's cache, and predict reads its output
    out2d, caches = net.forward(X)
    assert len(caches) == len(net.layers)
    assert net.predict(X).tobytes() == out2d[:, 0].tobytes()


def test_gradients_match_finite_differences():
    net = _toy_net(reg_lambda=0.001)
    rng = np.random.default_rng(2)
    X = rng.uniform(-1, 1, (20, 2))
    y2d = rng.normal(size=(20, 1))
    theta0 = net.get_params()
    _, grad, _, _ = _loss_and_grad(net, X, y2d, 0.001)
    eps = 1e-6
    for i in rng.choice(theta0.size, 30, replace=False):
        tp = theta0.copy()
        tp[i] += eps
        net.set_params(tp)
        lp = _loss_and_grad(net, X, y2d, 0.001)[0]
        tm = theta0.copy()
        tm[i] -= eps
        net.set_params(tm)
        lm = _loss_and_grad(net, X, y2d, 0.001)[0]
        numeric = (lp - lm) / (2 * eps)
        assert grad[i] == pytest.approx(numeric, abs=1e-6, rel=1e-5)


def test_train_fits_smooth_target():
    net = _toy_net()
    rng = np.random.default_rng(3)
    X = rng.uniform(-1, 1, (200, 2))
    y = X[:, 0] ** 2 + np.sin(2.0 * X[:, 1]) + 100.0
    res = train(net, X, y)
    assert res.final_mse < 0.01 * np.var(y)
    assert res.history[-1]["mse"] == pytest.approx(res.final_mse)
    assert res.history[0]["mse"] > res.final_mse
    assert len(res.history) <= net.config.steps + 1
    # predictions live in original units, offset included
    assert net.predict(X).mean() == pytest.approx(y.mean(), abs=1.0)


def test_train_is_deterministic():
    rng = np.random.default_rng(4)
    X = rng.uniform(-1, 1, (80, 2))
    y = np.cos(X[:, 0]) + X[:, 1]
    a = train(_toy_net(), X, y).final_mse
    b = train(_toy_net(), X, y).final_mse
    assert a == b


def _reference_train(net, X, y):
    """train() with the history recomputed at every callback point."""
    cfg = net.config
    mu, sigma = float(np.mean(y)), float(np.std(y))
    z2d = ((y - mu) / sigma)[:, None]
    _scale_output(net, 1.0 / sigma)
    _shift_output(net, -float(np.mean(net.predict(X))))
    history = []

    def objective(theta):
        net.set_params(theta)
        return _loss_and_grad(net, X, z2d, cfg.reg_lambda)[:2]

    def record(theta):
        net.set_params(theta)
        _, _, mse, reg = _loss_and_grad(net, X, z2d, cfg.reg_lambda)
        history.append({"step": len(history) + 1, "mse": mse * sigma ** 2,
                        "reg": reg, "loss": mse + reg})

    res = optimize.minimize(objective, net.get_params(), jac=True,
                            method="L-BFGS-B", callback=record,
                            options={"maxiter": cfg.steps, "maxcor": 20,
                                     "ftol": 1e-14, "gtol": 1e-12})
    net.set_params(res.x)
    _scale_output(net, sigma)
    _shift_output(net, mu)
    final_mse = float(np.mean((net.predict(X) - y) ** 2))
    history.append({"step": len(history) + 1, "mse": final_mse,
                    "reg": float(res.fun) - final_mse / sigma ** 2,
                    "loss": float(res.fun)})
    return history


@pytest.mark.parametrize("shape,seed,lamb", [((2, 3, 1), 0, 0.0),
                                             ((2, 3, 1), 1, 0.002),
                                             ((2, 2, 2, 1), 2, 0.01)])
def test_train_history_matches_recompute_reference(shape, seed, lamb):
    rng = np.random.default_rng(10 + seed)
    X = rng.uniform(-1, 1, (150, 2))
    y = 20.0 * np.log10(1.5 + X[:, 0]) + np.sin(3.0 * X[:, 1]) + 80.0
    net = _toy_net(shape=shape, seed=seed, steps=80, reg_lambda=lamb)
    ref = _toy_net(shape=shape, seed=seed, steps=80, reg_lambda=lamb)
    res = train(net, X, y)
    assert res.history == _reference_train(ref, X, y)
    assert np.array_equal(net.get_params(), ref.get_params())


def test_train_evaluates_loss_once_per_point(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return _loss_and_grad(*args)

    # the package's `train` attribute is the function, not the module
    kan_train = importlib.import_module("autopl.kan.train")
    monkeypatch.setattr(kan_train, "_loss_and_grad", counted)
    rng = np.random.default_rng(6)
    X = rng.uniform(-1, 1, (150, 2))
    y = X[:, 0] ** 3 - np.cos(2.0 * X[:, 1])
    res = train(_toy_net(steps=80, reg_lambda=0.001), X, y)
    nit = len(res.history) - 1
    assert nit >= 40
    assert len(calls) < 2 * nit



def _reference_layer_forward(layer, X):
    """KanLayer.forward of KanLayer.prepare(X), with X clamped and the
    whole recursion run on every call."""
    X = np.asarray(X, dtype=float)
    xc = np.clip(X, layer.basis.lo, layer.basis.hi)
    n, d_in = xc.shape
    s = silu(xc)
    flat = full_orders(layer.basis, xc.ravel(), layer.basis.order)
    b = flat.reshape(n, d_in, layer.basis.n_basis)
    spl = np.einsum("nim,ijm->nij", b, layer.coeffs)
    edge = layer.prune_mask * (layer.w_base * s[:, :, None]
                               + layer.w_spline * spl)
    cache = {"X": X, "xc": xc, "s": s, "b": b, "spl": spl, "edge": edge}
    return edge.sum(axis=1), cache


def _reference_layer_backward(layer, cache, d_out, d_edge_extra):
    """KanLayer.backward with the derivative matrix recomputed from x,
    and the input gradient always computed."""
    xc, s, b, spl = cache["xc"], cache["s"], cache["b"], cache["spl"]
    d_edge = np.broadcast_to(d_out[:, None, :],
                             (xc.shape[0], layer.d_in, layer.d_out)).copy()
    if d_edge_extra is not None:
        d_edge += d_edge_extra
    d_edge *= layer.prune_mask
    g_wb = np.einsum("nij,ni->ij", d_edge, s)
    g_ws = np.einsum("nij,nij->ij", d_edge, spl)
    g_c = np.einsum("nij,nim->ijm", d_edge * layer.w_spline, b)
    basis = layer.basis
    flat_d = full_derivative(basis, xc.ravel())
    db = flat_d.reshape(xc.shape[0], layer.d_in, basis.n_basis)
    dspl_dx = np.einsum("nim,ijm->nij", db, layer.coeffs)
    d_xc = silu_prime(xc) * np.einsum("nij,ij->ni", d_edge, layer.w_base)
    d_xc += np.einsum("nij,nij->ni", d_edge * layer.w_spline, dspl_dx)
    inside = (cache["X"] > basis.lo) & (cache["X"] < basis.hi)
    return {"w_base": g_wb, "w_spline": g_ws, "coeffs": g_c}, d_xc * inside


def _reference_loss_and_grad(net, X, y2d, lamb):
    """_loss_and_grad over the reference layer passes."""
    h, caches = X, []
    for layer in net.layers:
        h, cache = _reference_layer_forward(layer, h)
        caches.append(cache)
    resid = h - y2d
    mse = float(np.mean(resid ** 2))
    d_y = (2.0 / resid.size) * resid
    reg = 0.0
    grads = [None] * len(net.layers)
    for li in range(len(net.layers) - 1, -1, -1):
        edge = caches[li]["edge"]
        extra = None
        if lamb > 0.0:
            reg += lamb * float(np.abs(edge).mean(axis=0).sum())
            extra = (lamb / X.shape[0]) * np.sign(edge)
        grads[li], d_y = _reference_layer_backward(net.layers[li], caches[li],
                                                   d_y, extra)
    flat = np.concatenate([np.concatenate([g["w_base"].ravel(),
                                           g["w_spline"].ravel(),
                                           g["coeffs"].ravel()])
                           for g in grads])
    return mse + reg, flat, mse, reg


@pytest.mark.parametrize("lamb", [0.0, 0.01])
@pytest.mark.parametrize("pruned", [False, True])
@pytest.mark.parametrize("order", [1, 3, 4])
@pytest.mark.parametrize("shape", [(2, 3, 1), (2, 2, 2, 1)])
def test_prepared_first_layer_matches_recompute_reference(shape, order,
                                                          pruned, lamb):
    net = build_network(KanConfig(shape=shape, grid_size=5, order=order,
                                  seed=3))
    if pruned:
        net.layers[0].prune_mask[1, 0] = False
    lo, hi = net.layers[0].basis.lo, net.layers[0].basis.hi
    rng = np.random.default_rng(11)
    X = rng.uniform(-1, 1, (40, 2))
    # rows on both ends of the interval and outside it
    X[:4] = [[lo, hi], [hi, lo], [lo - 0.3, hi + 2.0], [-5.0, 7.0]]
    y2d = rng.normal(size=(40, 1))
    want = _reference_loss_and_grad(net, X, y2d, lamb)
    for first in (net.layers[0].prepare(X), None):
        got = _loss_and_grad(net, X, y2d, lamb, first)
        for a, b in zip(got, want):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("shape", [(2, 3, 1), (2, 2, 2, 1)])
def test_train_builds_first_layer_basis_once(monkeypatch, shape):
    lowers, losses = [], []
    real_lower = BSplineBasis.lower

    def counted_lower(self, x):
        lowers.append(1)
        return real_lower(self, x)

    def counted_loss(*args):
        losses.append(1)
        return _loss_and_grad(*args)

    kan_train = importlib.import_module("autopl.kan.train")
    monkeypatch.setattr(BSplineBasis, "lower", counted_lower)
    monkeypatch.setattr(kan_train, "_loss_and_grad", counted_loss)
    rng = np.random.default_rng(12)
    X = rng.uniform(-1, 1, (100, 2))
    y = np.sin(2.0 * X[:, 0]) + X[:, 1] ** 2
    train(_toy_net(shape=shape, steps=30), X, y)
    n_layers, hidden = len(shape) - 1, len(shape) - 2
    assert len(losses) >= 10
    # the first layer's basis once per fit, each hidden layer's once per
    # evaluation, and every layer's for each of train's two predictions
    assert len(lowers) == 1 + hidden * len(losses) + 2 * n_layers


def test_train_continues_without_degrading():
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, (120, 2))
    y = 3.0 * X[:, 0] - X[:, 1] ** 2 + 50.0
    net = _toy_net()
    first = train(net, X, y).final_mse
    second = train(net, X, y).final_mse
    assert second <= first * 1.01


def test_train_validation_errors():
    net = _toy_net()
    X = np.zeros((10, 2))
    with pytest.raises(TrainingError):
        train(net, X, np.ones(10))  # constant target
    with pytest.raises(ValueError):
        train(net, X, np.ones(9))
    cfg = KanConfig(shape=(2, 2), grid_size=5, steps=10)
    with pytest.raises(ValueError):
        train(build_network(cfg), X, np.ones(10))


def test_kan_config_validation():
    with pytest.raises(ValueError):
        KanConfig(shape=(4,))
    with pytest.raises(ValueError):
        KanConfig(shape=(4, 0, 1))
    with pytest.raises(ValueError):
        KanConfig(shape=(4, 1), steps=0)
    with pytest.raises(ValueError):
        KanConfig(shape=(4, 1), reg_lambda=-1.0)


def test_edge_importance_normalized_per_layer():
    net = _toy_net()
    rng = np.random.default_rng(6)
    X = rng.uniform(-1, 1, (60, 2))
    y = X[:, 0] + 10.0
    train(net, X, y)
    scores = edge_importance(net, X)
    assert len(scores) == 2
    for layer, imp in zip(net.layers, scores):
        assert imp.shape == (layer.d_in, layer.d_out)
        assert imp.max() == pytest.approx(1.0)
        assert imp.min() >= 0.0


def test_prune_masks_weak_edges():
    # the sparsity penalty is what pushes useless edges toward zero
    net = _toy_net(shape=(2, 4, 1), reg_lambda=0.01, steps=120)
    rng = np.random.default_rng(7)
    X = rng.uniform(-1, 1, (300, 2))
    # only the first feature matters; edges from x1 should score low
    y = 40.0 * X[:, 0] + 100.0
    train(net, X, y)
    pruned = prune(net, X, threshold=0.05)
    assert pruned.layers[0].prune_mask.sum() < net.layers[0].prune_mask.sum()
    # original is untouched, pruned edges output exactly zero
    assert net.layers[0].prune_mask.all()
    _, caches = pruned.forward(X)
    dead = ~pruned.layers[0].prune_mask
    assert np.all(caches[0]["edge"][:, dead] == 0.0)
    # prediction quality survives pruning of irrelevant edges
    mse = np.mean((pruned.predict(X) - y) ** 2)
    assert mse < 0.05 * np.var(y)


def test_prune_refuses_to_empty_a_layer():
    net = _toy_net()
    for layer in net.layers:
        layer.w_base[:] = 0.0
        layer.coeffs[:] = 0.0
    X = np.random.default_rng(8).uniform(-1, 1, (20, 2))
    with pytest.raises(TrainingError):
        prune(net, X, threshold=0.01)
    with pytest.raises(ValueError):
        prune(net, X, threshold=1.5)


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    # a net with an input scale, fed inputs in original units
    cfg = KanConfig(shape=(2, 3, 1), grid_size=5, order=3, steps=60,
                    reg_lambda=0.002, seed=0)
    net = build_network(cfg, [40.0, 0.3])
    rng = np.random.default_rng(9)
    X = rng.uniform(-1, 1, (150, 2)) * [40.0, 0.3]
    y = X[:, 0] / 13.0 + np.sin(10 * X[:, 1]) + 80.0
    train(net, X, y)
    net2 = prune(net, X, threshold=0.01)
    assert net2.input_scale.tolist() == [40.0, 0.3]
    path = tmp_path / "net.json"
    save_kan(net2, path)
    back = load_kan(path)
    assert back.shape == net2.shape
    assert back.input_scale.tobytes() == net2.input_scale.tobytes()
    assert np.array_equal(back.predict(X), net2.predict(X))
    assert all(np.array_equal(a.prune_mask, b.prune_mask)
               for a, b in zip(back.layers, net2.layers))


def test_input_scale_divides_the_input_exactly():
    # a scaled net on raw inputs trains and predicts bit for bit like an
    # unscaled net on the inputs divided by hand
    scale = np.array([250.0, 0.04])
    rng = np.random.default_rng(12)
    X = rng.uniform(0.1, 1.0, (80, 2)) * scale
    y = np.log10(X[:, 0]) * 20.0 + 30.0 * X[:, 1]
    cfg = KanConfig(shape=(2, 3, 1), grid_size=5, order=3, steps=20, seed=4)
    scaled, plain = build_network(cfg, scale), build_network(cfg)
    hist = [train(scaled, X, y).history, train(plain, X / scale, y).history]
    assert hist[0] == hist[1]
    assert scaled.predict(X).tobytes() == plain.predict(X / scale).tobytes()
    assert prune(scaled, X).input_scale.tobytes() == scale.tobytes()
    for bad in ([1.0], [1.0, 0.0], [1.0, np.inf]):
        with pytest.raises(ValueError):
            build_network(cfg, bad)


# (where in the checkpoint, a value save_kan never writes there)
_MALFORMED_FIELDS = [
    (("config", "grid_size"), "5"),
    (("config", "steps"), 2.7),
    (("config", "seed"), True),
    (("config", "shape"), [2, 3.0, 1]),
    (("config", "reg_lambda"), True),
    (("config", "lo"), "-1"),
    (("layers", 0, "prune_mask", 0, 0), "x"),
    (("layers", 0, "prune_mask", 0, 0), 0.5),
    (("layers", 0, "prune_mask", 0, 0), True),
    (("layers", 0, "w_base", 0, 0), float("nan")),
    (("layers", 1, "coeffs", 0, 0, 2), float("inf")),
    (("layers", 0, "w_spline", 1, 0), "0.5"),
    (("input_scale", 0), True),
]


def test_checkpoint_errors(tmp_path):
    with pytest.raises(CheckpointError):
        load_kan(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(CheckpointError):
        load_kan(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"format": "something-else"}')
    with pytest.raises(CheckpointError):
        load_kan(wrong)
    truncated = tmp_path / "trunc.json"
    truncated.write_text('{"format": "kan-checkpoint", "version": 1, "config": {}}')
    with pytest.raises(CheckpointError):
        load_kan(truncated)
    # each field holds only what save_kan writes there: no value is
    # coerced, and every weight is finite
    path = tmp_path / "net.json"
    save_kan(_toy_net(), path)
    saved = path.read_text()
    for where, value in _MALFORMED_FIELDS:
        doc = json.loads(saved)
        *outer, last = where
        target = doc
        for key in outer:
            target = target[key]
        target[last] = value
        path.write_text(json.dumps(doc))
        field = [k for k in where if isinstance(k, str)][-1]
        with pytest.raises(CheckpointError, match=f"{path}: {field} holds"):
            load_kan(path)
    doc = json.loads(saved)
    doc["config"]["shape"] = "21"
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=f"{path}: shape '21' is not"):
        load_kan(path)
    # no layers at all
    path.write_text(json.dumps(dict(json.loads(saved), layers=[])))
    with pytest.raises(CheckpointError, match=f"malformed checkpoint {path}"):
        load_kan(path)


def test_checkpoint_takes_an_integer_reg_lambda(tmp_path):
    path = tmp_path / "net.json"
    save_kan(_toy_net(reg_lambda=0), path)
    assert json.loads(path.read_text())["config"]["reg_lambda"] == 0
    assert load_kan(path).config.reg_lambda == 0.0
