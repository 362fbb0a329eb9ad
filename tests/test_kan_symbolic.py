"""Edge shape fitting, symbolic read-out, affine retraining, extraction."""

import multiprocessing
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autopl.expr.tree import evaluate, to_infix
from autopl.kan import (
    KanConfig,
    auto_symbolic,
    build_network,
    extract_expression,
    retrain_affine,
    train,
)
from autopl.kan import symbolic
from autopl.kan.symbolic import EDGE_FAMILIES, EdgeFit, SymbolicKan, fit_edge
from autopl.plmodels import SyntheticSpec, generate_synthetic, normalize_max


def _edge(fit, x):
    """An edge fit's value c * f(a * x + b) + d."""
    fam = EDGE_FAMILIES[fit.name]
    with np.errstate(all="ignore"):
        return fit.c * fam.fn(fit.a * np.asarray(x, float) + fit.b) + fit.d


def _curve(n=200):
    return np.linspace(-1.0, 1.05, n)


def test_fit_edge_recovers_known_shapes():
    x = _curve()
    cases = [
        ("log10", lambda u: 20.0 * np.log10(u + 1.1) + 3.0),
        ("identity", lambda u: -4.0 * u + 0.5),
        ("square", lambda u: 2.0 * (1.5 * u - 0.2) ** 2 - 1.0),
        ("exp", lambda u: 0.8 * np.exp(1.7 * u + 0.1) - 2.0),
        ("sin", lambda u: 4.9 * np.sin(8.2 * u - 2.9) + 0.3),
        ("cos", lambda u: -1.3 * np.cos(5.04 * u - 0.5) + 4.9),
        # inflection inside the range, singularities below and above it
        ("cube", lambda u: 0.5 * (1.5 * u - 0.05) ** 3 + 1.0),
        ("sqrt", lambda u: 3.0 * np.sqrt(2.0 * u + 2.05) - 1.0),
        ("reciprocal", lambda u: 2.0 / (1.4 - 0.9 * u) + 0.2),
    ]
    for want, f in cases:
        y = f(x)
        fit = fit_edge(x, y)
        # sin and cos are phase-shifts of one another at equal complexity,
        # so either name is an exact recovery
        allowed = {want, "sin", "cos"} if want in ("sin", "cos") else {want}
        assert fit.name in allowed, f"{want} -> {fit.name}"
        assert fit.r2 > 0.9999
        assert np.max(np.abs(_edge(fit, x) - y)) < 1e-6


def _reference_grid_r2(fam, x, y):
    """R2 of the best c*f(a*x + b) + d over a 97x97 (a, b) grid on
    [-12, 12]^2, c and d by closed form."""
    grid = np.linspace(-12.0, 12.0, 97)
    aa, bb = np.meshgrid(grid, grid, indexing="ij")
    keep = np.abs(aa.ravel()) > 1e-6
    aa, bb = aa.ravel()[keep], bb.ravel()[keep]
    with np.errstate(all="ignore"):
        fu = fam.fn(aa[:, None] * x[None, :] + bb[:, None])
    fu = fu[np.all(np.isfinite(fu), axis=1)]
    fc = fu - fu.mean(axis=1, keepdims=True)
    yc = y - y.mean()
    var_f = np.mean(fc * fc, axis=1)
    ok = var_f > 1e-14
    cov = fc[ok] @ yc / y.size
    return float(np.max(cov ** 2 / (var_f[ok] * np.mean(yc * yc))))


def test_reduced_starts_reach_the_affine_grid():
    # each reduced search covers the grid's (a, b) pairs up to a fold into
    # c, d, so its start is never worse, on matching and mismatched shapes
    from autopl.kan.symbolic import _start

    rng = np.random.default_rng(11)
    xs = [_curve(), np.sort(rng.uniform(-0.6, 0.9, 300))]
    shapes = [
        lambda u: -4.0 * u + 0.5,
        lambda u: 2.0 * (1.5 * u - 0.2) ** 2 - 1.0,
        lambda u: 0.8 * np.exp(1.7 * u + 0.1) - 2.0,
        lambda u: 4.9 * np.sin(8.2 * u - 2.9) + 0.3,
        lambda u: -1.3 * np.cos(5.04 * u - 0.5) + 4.9,
        lambda u: 20.0 * np.log10(u + 1.1) + 3.0,
        lambda u: np.tanh(3.0 * u) + 0.1 * u,
        lambda u: np.sin(3.0 * u) * np.exp(-u) + 0.05 * np.cos(17.0 * u),
    ]
    for x in xs:
        for shape in shapes:
            y = shape(x)
            for name in ("identity", "square", "exp", "sin", "cos"):
                fam = EDGE_FAMILIES[name]
                start = _start(fam, x, y)
                assert start is not None
                assert start[4] >= _reference_grid_r2(fam, x, y) - 1e-9, name


def test_fit_edge_flat_curve_short_circuits_to_zero():
    x = _curve(50)
    fit = fit_edge(x, np.full_like(x, 3.25))
    assert fit.name == "zero"
    assert fit.d == pytest.approx(3.25)
    assert fit.r2 == 1.0
    assert np.all(_edge(fit, x) == 3.25)


def test_fit_edge_prefers_simple_shape_on_near_ties():
    # a clean line: curvier families can get close but must not win
    x = _curve()
    fit = fit_edge(x, 2.0 * x - 1.0)
    assert fit.name == "identity"


def test_fit_edge_respects_family_subset():
    x = _curve()
    y = np.exp(2.0 * x)
    fit = fit_edge(x, y, families=("identity", "zero"))
    assert fit.name in ("identity", "zero")


def test_fit_edge_input_validation():
    with pytest.raises(ValueError):
        fit_edge(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        fit_edge(np.zeros(10), np.zeros(9))
    with pytest.raises(ValueError):
        fit_edge(np.zeros((5, 2)), np.zeros((5, 2)))


# ---------------------------------------------------------------------------
# fit_edge's early stop against the full-library selection it replaced


def _reference_fit_edge(x, y, families=None):
    """fit_edge as it was before the early stop: every family in library
    order, then the tie-break over all of them."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    names = list(families) if families is not None else list(EDGE_FAMILIES)
    ym = float(y.mean())
    if float(np.var(y)) < 1e-24:
        return EdgeFit("zero", 0.0, 0.0, 0.0, ym, 1.0)
    candidates = []
    if "zero" in names:
        candidates.append(EdgeFit("zero", 0.0, 0.0, 0.0, ym,
                                  symbolic._r2(np.full_like(y, ym), y)))
    for name in names:
        if name == "zero":
            continue
        fam = EDGE_FAMILIES[name]
        start = symbolic._start(fam, x, y)
        if start is None:
            continue
        best = start
        refined = symbolic._refine(fam, x, y, start)
        if refined is not None and refined[4] > best[4]:
            best = refined
        candidates.append(EdgeFit(name, best[0], best[1], best[2], best[3],
                                  best[4]))
    if not candidates:
        return EdgeFit("zero", 0.0, 0.0, 0.0, ym,
                       symbolic._r2(np.full_like(y, ym), y))
    top = max(c.r2 for c in candidates)
    near = [c for c in candidates if c.r2 >= top - symbolic._TIE_BREAK]
    near.sort(key=lambda c: (c.complexity, -c.r2))
    return near[0]


def _same_fit(got, want):
    return got.name == want.name and np.array_equal(
        [got.a, got.b, got.c, got.d, got.r2],
        [want.a, want.b, want.c, want.d, want.r2], equal_nan=True)


def _started(monkeypatch):
    """Record the families whose start fit_edge computes."""
    seen = []
    real = symbolic._start

    def start(fam, x, y):
        seen.append(fam.name)
        return real(fam, x, y)

    monkeypatch.setattr(symbolic, "_start", start)
    return seen


@st.composite
def _edge_curves(draw):
    """(x, y, families): a library shape with random parameters on part of
    the clamp interval, noise from none to swamping, sometimes a near tie
    between a line and a parabola, sometimes a family subset."""
    n = draw(st.integers(12, 120))
    lo = draw(st.floats(-1.0, 0.5))
    hi = draw(st.floats(lo + 0.1, 1.05))
    x = np.linspace(lo, hi, n)
    a = draw(st.floats(-4.0, 4.0).filter(lambda v: abs(v) > 0.05))
    b = draw(st.floats(-2.0, 2.0))
    c = draw(st.floats(-30.0, 30.0).filter(lambda v: abs(v) > 1e-3))
    d = draw(st.floats(-30.0, 30.0))
    shape = draw(st.sampled_from(["near-tie"] + [
        f for f in EDGE_FAMILIES if f != "zero"]))
    if shape == "near-tie":
        eps = draw(st.floats(0.0, 2.0))
        y = c * (x + eps * x * x) + d
    else:
        if shape in ("sqrt", "log10", "reciprocal"):
            # keep the singularity outside the sampled range
            b = draw(st.floats(0.01, 3.0)) - min(a * lo, a * hi)
        if shape == "exp":
            a = float(np.clip(a, -3.0, 3.0))
        y = c * EDGE_FAMILIES[shape].fn(a * x + b) + d
    noise = draw(st.sampled_from([0.0, 1e-6, 1e-3, 0.05, 0.3, 3.0]))
    seed = draw(st.integers(0, 2 ** 16))
    y = y + noise * float(np.std(y)) * np.random.default_rng(seed).normal(size=n)
    families = None
    if draw(st.booleans()):
        families = draw(st.lists(st.sampled_from(list(EDGE_FAMILIES)),
                                 min_size=1, max_size=5, unique=True))
    return x, y, families


@settings(max_examples=40, deadline=None, database=None)
@given(_edge_curves())
def test_fit_edge_early_stop_matches_full_library(curve):
    x, y, families = curve
    got = fit_edge(x, y, families)
    want = _reference_fit_edge(x, y, families)
    assert _same_fit(got, want), (got, want)


def test_fit_edge_stops_at_the_first_level_that_must_win(monkeypatch):
    x = _curve()
    seen = _started(monkeypatch)
    assert fit_edge(x, -4.0 * x + 0.5).name == "identity"
    assert seen == ["identity"]
    # a clean parabola: identity cannot win, square settles level 2, so the
    # level-3 families (cube, sin, cos) are never started
    seen.clear()
    y = 2.0 * (x - 0.3) ** 2 - 1.0
    got = fit_edge(x, y)
    assert seen == ["identity", "square", "sqrt", "reciprocal", "log10",
                    "exp"]
    assert _same_fit(got, _reference_fit_edge(x, y))
    # swamped by noise, no level settles, and every family is fitted
    seen.clear()
    y = x + np.random.default_rng(3).normal(size=x.size)
    fit_edge(x, y)
    assert seen == ["identity", "square", "sqrt", "reciprocal", "log10",
                    "exp", "cube", "sin", "cos"]


@pytest.mark.parametrize("below", [False, True])
def test_fit_edge_early_stop_guards_start_rounding(monkeypatch, below):
    """A start's R2 can round above 1; a simpler shape whose R2 sits right
    at the stopping threshold must still be chosen as the full library
    would choose it."""
    x = np.linspace(-1.0, 1.05, 25)
    y = 2.0 * (x - 0.3) ** 2 - 1.0
    over = symbolic._start(EDGE_FAMILIES["square"], x, y)
    assert over[4] > 1.0  # real rounding, kept since a refined R2 is <= 1
    settled = symbolic._SETTLED
    if below:
        settled = float(np.nextafter(settled, 0.0))
    real_start, real_refine = symbolic._start, symbolic._refine

    def start(fam, x, y):
        if fam.name == "identity":
            return (1.0, 0.0, 1.0, 0.0, settled)
        return real_start(fam, x, y)

    def refine(fam, x, y, start):
        # the identity stays at its planted R2
        return None if fam.name == "identity" else real_refine(fam, x, y, start)

    monkeypatch.setattr(symbolic, "_start", start)
    monkeypatch.setattr(symbolic, "_refine", refine)
    got = fit_edge(x, y)
    want = _reference_fit_edge(x, y)
    assert _same_fit(got, want), (got, want)
    assert want.name == "identity"


def test_fit_edge_early_stop_waits_while_a_simpler_shape_ties(monkeypatch):
    """Square settles level 2, but identity is still within the tie-break
    of it; a level-3 shape then raises the top and pushes identity out, so
    stopping at level 2 would have picked identity instead of square."""
    planted = {"identity": 0.975, "square": 0.99, "sin": 0.999}
    monkeypatch.setattr(symbolic, "_start", lambda fam, x, y: (
        (1.0, 0.0, 1.0, 0.0, planted[fam.name]) if fam.name in planted
        else None))
    monkeypatch.setattr(symbolic, "_refine", lambda fam, x, y, start: None)
    x = _curve(20)
    got = fit_edge(x, x)
    assert _same_fit(got, _reference_fit_edge(x, x))
    assert got.name == "square"


def _library_net(grid_size=8, order=3):
    """[2, 1] net whose two edges are spline fits of library shapes."""
    cfg = KanConfig(shape=(2, 1), grid_size=grid_size, order=order, steps=1)
    net = build_network(cfg)
    layer = net.layers[0]
    xs = np.linspace(layer.basis.lo, layer.basis.hi, 400)
    design = layer.basis.design_matrix(xs)
    shapes = [20.0 * np.log10(xs + 1.1) + 3.0, -4.0 * xs + 0.5]
    layer.w_base[:] = 0.0
    layer.w_spline[:] = 1.0
    for i, target in enumerate(shapes):
        coef, *_ = np.linalg.lstsq(design, target, rcond=None)
        layer.coeffs[i, 0, :] = coef
    return net


def test_auto_symbolic_recovers_library_edges():
    net = _library_net()
    rng = np.random.default_rng(3)
    X = rng.uniform(-1.0, 1.05, size=(400, 2))
    sym = auto_symbolic(net, X)
    names = [sym.fits[0][0][0].name, sym.fits[0][1][0].name]
    assert names == ["log10", "identity"]
    for row in sym.fits[0]:
        assert row[0].r2 >= 0.99
    # the read-out tracks the spline net on its own inputs; the largest
    # gaps sit where the spline itself struggles with the steep log10
    gap = np.abs(sym.predict(X) - net.predict(X))
    assert float(gap.mean()) < 0.05
    assert float(gap.max()) < 0.5


def test_auto_symbolic_keeps_extreme_rows_in_range():
    # the edge is log10(x + 0.95) over the bulk of the inputs; the one
    # row below -0.95 is an extreme that evenly spaced picks skip, and a
    # shape fitted without it is non-finite there
    cfg = KanConfig(shape=(1, 1), grid_size=8, order=3, steps=1)
    net = build_network(cfg)
    layer = net.layers[0]
    xs = np.linspace(-0.94, 1.05, 400)
    coef, *_ = np.linalg.lstsq(layer.basis.design_matrix(xs),
                               np.log10(xs + 0.95), rcond=None)
    layer.w_base[:] = 0.0
    layer.w_spline[:] = 1.0
    layer.coeffs[0, 0, :] = coef
    n = 1000
    X = np.random.default_rng(12).uniform(-0.9, 1.05, size=(n, 1))
    picked = set(np.linspace(0, n - 1, symbolic._READOUT_ROWS).astype(int))
    skipped = next(i for i in range(n) if i not in picked)
    X[skipped, 0] = -1.0
    sym = auto_symbolic(net, X)
    assert np.all(np.isfinite(sym.predict(X)))


def test_auto_symbolic_pruned_edge_becomes_zero():
    net = _library_net()
    net.layers[0].prune_mask[1, 0] = False
    X = np.random.default_rng(4).uniform(-1.0, 1.05, size=(100, 2))
    sym = auto_symbolic(net, X)
    assert sym.fits[0][1][0].name == "zero"
    assert sym.fits[0][1][0].c == 0.0
    # output ignores the masked input entirely
    X2 = X.copy()
    X2[:, 1] = -0.77
    assert np.array_equal(sym.predict(X), sym.predict(X2))


def test_retrain_affine_never_worse_and_repairs_perturbation():
    net = _library_net()
    rng = np.random.default_rng(5)
    X = rng.uniform(-1.0, 1.05, size=(300, 2))
    y = net.predict(X)
    sym = auto_symbolic(net, X)

    def mse(s):
        return float(np.mean((s.predict(X) - y) ** 2))

    base = mse(sym)
    tuned, tuned_mse = retrain_affine(sym, X, y)
    assert tuned_mse <= base + 1e-15
    assert tuned_mse == pytest.approx(mse(tuned))

    # knock the scale of one edge off and retrain: most of the damage
    # must be recovered
    f = sym.fits[0][0][0]
    broken = _with_fits(sym, {(0, 0, 0): replace(f, c=1.3 * f.c)})
    broken_mse = mse(broken)
    repaired, repaired_mse = retrain_affine(broken, X, y)
    assert broken_mse > 10.0 * base
    assert repaired_mse <= broken_mse
    assert repaired_mse <= 2.0 * tuned_mse + 1e-12


def test_retrain_affine_keeps_its_input_on_a_tie(monkeypatch):
    net = _library_net()
    X = np.random.default_rng(5).uniform(-1.0, 1.05, size=(100, 2))
    y = net.predict(X)
    sym = auto_symbolic(net, X)
    # neither candidate has a strictly lower training MSE than the input
    monkeypatch.setattr(symbolic, "minimize_lbfgsb",
                        lambda fun, theta, **kw: (theta, None))
    monkeypatch.setattr(symbolic, "_polish_last_layer", lambda s, X, y: s)
    got, got_mse = retrain_affine(sym, X, y)
    assert got is sym
    assert got_mse == float(np.mean((sym.predict(X) - y) ** 2))


def test_extracted_tree_matches_symbolic_forward():
    net = _library_net()
    X = np.random.default_rng(6).uniform(-1.0, 1.05, size=(250, 2))
    sym = auto_symbolic(net, X)
    tree = extract_expression(sym, ["x0", "x1"])
    pred_tree = evaluate(tree, X)
    pred_sym = sym.predict(X)
    assert np.max(np.abs(pred_tree - pred_sym)) < 1e-9


def test_extract_expression_folds_normalization():
    net = _library_net()
    rng = np.random.default_rng(7)
    X_orig = np.column_stack([rng.uniform(-2.5, 2.6, 200),
                              rng.uniform(-0.5, 0.52, 200)])
    scale = np.array([2.5, 0.5])
    fitted = auto_symbolic(net, X_orig / scale)
    sym = SymbolicKan(fitted.shape, fitted.fits, fitted.masks, scale)
    tree = extract_expression(sym, ["a", "b"])
    pred_tree = evaluate(tree, X_orig)
    pred_sym = sym.predict(X_orig)
    assert np.allclose(pred_tree, pred_sym, rtol=1e-10, atol=1e-10)


_FINITE_ON_R = ("zero", "identity", "square", "cube", "exp", "sin", "cos")


@st.composite
def _edge_fit(draw, lo, hi, families):
    """An EdgeFit of a drawn family, finite for inputs in [lo, hi]."""
    name = draw(st.sampled_from(families))
    if name == "zero":
        return EdgeFit("zero", 0.0, 0.0, 0.0, draw(st.floats(-5.0, 5.0)), 1.0)
    a = draw(st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 0.05))
    b = draw(st.floats(-1.0, 1.0))
    if name in ("sqrt", "log10", "reciprocal"):
        # keep the singularity at least 0.05 outside a*[lo, hi] + b
        b = draw(st.floats(0.05, 2.0)) - min(a * lo, a * hi)
    c = draw(st.floats(-5.0, 5.0))
    d = draw(st.floats(-5.0, 5.0))
    return EdgeFit(name, a, b, c, d, 1.0)


@settings(max_examples=100, deadline=None, database=None)
@given(st.data())
def test_extract_expression_folds_normalization_for_every_family(data):
    """The extracted tree on raw features equals the symbolic network
    with those divisors as its input scale, for every edge family and
    random positive divisors; one feature has no divisor (1.0)."""
    draw = data.draw
    # layer 0 sees normalized inputs in [0.1, 1.05]; layer 1 sees hidden
    # values of unknown range, so it uses the shapes finite on the line
    fits0 = [[draw(_edge_fit(0.1, 1.05, list(EDGE_FAMILIES)))
              for _ in range(2)] for _ in range(3)]
    fits1 = [[draw(_edge_fit(-1.0, 1.0, _FINITE_ON_R))] for _ in range(2)]
    fits1 = [[replace(f, a=float(np.clip(f.a, -0.2, 0.2)))
              if f.name == "exp" else f for f in row] for row in fits1]
    masks = [np.array(draw(st.lists(st.booleans(), min_size=6, max_size=6)),
                      dtype=bool).reshape(3, 2),
             np.array([[True], [draw(st.booleans())]])]
    divisors = np.array([10.0 ** draw(st.floats(-3.0, 4.0)),
                         10.0 ** draw(st.floats(-3.0, 4.0)), 1.0])
    sym = SymbolicKan((3, 2, 1), [fits0, fits1], masks, divisors)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    X_raw = rng.uniform(0.1, 1.05, size=(40, 3)) * divisors
    tree = extract_expression(sym, ["d_m", "f_hz", "h_m"])
    want = sym.predict(X_raw)
    got = evaluate(tree, X_raw)
    assert np.all(np.isfinite(want))
    scale = max(1.0, float(np.max(np.abs(want))))
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * scale)


def test_extract_expression_infix_mentions_families():
    net = _library_net()
    X = np.random.default_rng(8).uniform(-1.0, 1.05, size=(100, 2))
    sym = auto_symbolic(net, X)
    infix = to_infix(extract_expression(sym, ["d", "f"]))
    assert "log10" in infix
    assert "d" in infix and "f" in infix


def test_extract_expression_feature_count_mismatch():
    net = _library_net()
    X = np.random.default_rng(9).uniform(-1.0, 1.05, size=(50, 2))
    sym = auto_symbolic(net, X)
    with pytest.raises(ValueError):
        extract_expression(sym, ["only_one"])


def _with_fits(sym, edits=(), masks=None):
    """`sym` rebuilt with the edge fits of `edits`, {(layer, i, j):
    EdgeFit}, in place of its own, and with `masks` if given."""
    fits = [[list(row) for row in layer] for layer in sym.fits]
    for (layer, i, j), fit in dict(edits).items():
        fits[layer][i][j] = fit
    return SymbolicKan(sym.shape, fits,
                       sym.masks if masks is None else masks, sym.input_scale)


def test_symbolic_kan_is_immutable():
    net = _library_net()
    X = np.random.default_rng(10).uniform(-1.0, 1.05, size=(50, 2))
    sym = auto_symbolic(net, X)
    with pytest.raises(TypeError):
        sym.fits[0][0][0] = replace(sym.fits[0][0][0], c=0.0)
    for array in (sym.theta, sym.params[0], sym.masks[0]):
        with pytest.raises(ValueError):
            array[0] = 0
    # the net's own mask stays its own
    net.layers[0].prune_mask[1, 0] = False
    assert sym.masks[0].all()
    before = sym.theta.tobytes()
    moved = sym.with_theta(sym.theta * 1.5 + 0.1)
    assert sym.theta.tobytes() == before
    assert moved.theta.tobytes() != before
    assert sym.with_theta(sym.theta).fits == sym.fits
    assert _with_fits(sym).theta.tobytes() == before


@pytest.mark.parametrize("case", ["one edge short", "wrong width"])
def test_symbolic_kan_checks_its_shapes(case):
    shape = (3, 2, 1)
    edge = EdgeFit("identity", 1.0, 0.0, 1.0, 0.0, 1.0)
    widths = list(zip(shape[:-1], shape[1:]))
    fits = [[[edge] * d_out for _ in range(d_in)] for d_in, d_out in widths]
    masks = [np.ones(w, dtype=bool) for w in widths]
    SymbolicKan(shape, fits, masks)
    if case == "one edge short":
        fits[0][2] = fits[0][2][:1]
    else:
        # the output layer reads three inputs where the hidden layer
        # writes two
        fits[1] = [[edge]] * 3
        masks[1] = np.ones((3, 1), dtype=bool)
    with pytest.raises(ValueError, match="do not chain"):
        SymbolicKan(shape, fits, masks)


def test_edge_family_table_is_consistent():
    x = np.linspace(0.1, 1.0, 20)
    for name, fam in EDGE_FAMILIES.items():
        assert fam.name == name
        assert fam.complexity >= 0
        vals = fam.fn(x)
        assert vals.shape == x.shape


# ---------------------------------------------------------------------------
# the one-pass forward against the per-edge recompute it replaced: each
# reference below evaluates every edge again through `_edge`


def _ref_forward(sym, X):
    hs = [np.asarray(X, dtype=float)]
    with np.errstate(all="ignore"):
        for fits_l, mask in zip(sym.fits, sym.masks):
            h = hs[-1]
            d_in, d_out = mask.shape
            out = np.zeros((h.shape[0], d_out))
            for j in range(d_out):
                for i in range(d_in):
                    if mask[i, j]:
                        out[:, j] += _edge(fits_l[i][j], h[:, i])
            hs.append(out)
    return hs


def _ref_mse_and_grad(sym, X, y):
    hs = _ref_forward(sym, X)
    pred = hs[-1][:, 0]
    if not np.all(np.isfinite(pred)):
        return 1e30, np.zeros(sym.theta.size)
    n = y.size
    mse = float(np.mean((pred - y) ** 2))
    d_h = (2.0 / n) * (hs[-1] - y[:, None])
    grads = []
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


def _ref_polish_last_layer(sym, X, y):
    h = _ref_forward(sym, X)[-2]
    fits_l, mask = sym.fits[-1], sym.masks[-1]
    edits = {}
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
                return sym
            cols.append(col)
            idxs.append(i)
    if not cols:
        return sym
    design = np.column_stack(cols + [np.ones(y.size)])
    sol, *_ = np.linalg.lstsq(design, y, rcond=None)
    active = [i for i in range(d_in) if mask[i, 0]]
    share = float(sol[-1]) / len(active)
    for i in active:
        f = fits_l[i][0]
        new_c = f.c
        if i in idxs:
            new_c = float(sol[idxs.index(i)])
        edits[len(sym.fits) - 1, i, 0] = replace(f, c=new_c, d=share)
    return _with_fits(sym, edits)


def _fit_bytes(sym):
    """Every edge's family and parameters, bit for bit."""
    names = [f.name for layer in sym.fits for row in layer for f in row]
    return names, sym.theta.tobytes()


@pytest.fixture(scope="module")
def ci_net():
    """A [4, 4, 1] net briefly trained on close-in data, with its rows."""
    ds = normalize_max(generate_synthetic(SyntheticSpec("ci", count=300,
                                                        seed=7)))
    net = build_network(KanConfig(shape=(4, 4, 1), grid_size=8, steps=40,
                                  reg_lambda=0.002, seed=1))
    train(net, ds.X, ds.y)
    return net, ds.X, ds.y


@pytest.fixture(scope="module")
def ci_readout(ci_net):
    """A [4, 4, 1] read-out of a briefly trained close-in net."""
    net, X, y = ci_net
    return auto_symbolic(net, X), X, y


def test_auto_symbolic_in_workers_matches_in_process(ci_net, forced_pool,
                                                      in_process):
    # one layer-0 edge pruned, so a zero shape sits between the fits
    net, X, _ = ci_net
    net = net.copy()
    net.layers[0].prune_mask[1, 2] = False
    readouts = []
    for path in ("pooled", "no-pool", "one-cpu"):
        if path != "pooled":
            in_process(path)
        readouts.append(auto_symbolic(net, X))
    assert forced_pool == [2]
    pooled = readouts[0]
    assert pooled.fits[0][1][2] == EdgeFit("zero", 0.0, 0.0, 0.0, 0.0, 1.0)
    for alone in readouts[1:]:
        assert alone.fits == pooled.fits
        assert _fit_bytes(alone) == _fit_bytes(pooled)


def test_no_worker_outlives_auto_symbolic(ci_net, forced_pool, monkeypatch):
    net, X, _ = ci_net
    auto_symbolic(net, X)
    assert multiprocessing.active_children() == []

    def broken(x, y):
        raise ValueError("edge fit failed")

    # the workers are forked after this, so they inherit it
    monkeypatch.setattr(symbolic, "fit_edge", broken)
    with pytest.raises(ValueError, match="edge fit failed"):
        auto_symbolic(net, X)
    assert forced_pool == [2, 2]
    assert multiprocessing.active_children() == []


def _reference_nets(ci_readout):
    """The trained read-out, one with a pruned edge, one with active
    zero-family edges in both layers, and one non-finite on some rows."""
    sym, X, _ = ci_readout
    masks = [m.copy() for m in sym.masks]
    masks[0][1, 2] = False
    pruned = _with_fits(sym, masks=masks)
    zeroed = _with_fits(sym, {
        (0, 2, 1): EdgeFit("zero", 0.0, 0.0, 0.0, 0.4, 1.0),
        (1, 3, 0): EdgeFit("zero", 0.0, 0.0, 0.0, -0.7, 1.0)})
    # log10 of a last-layer input shifted below zero on part of the rows
    h = _ref_forward(sym, X)[1][:, 0]
    broken = _with_fits(sym, {(1, 0, 0): EdgeFit(
        "log10", 1.0, -float(np.median(h)), 1.0, 0.0, 1.0)})
    # sqrt of an output-layer input shifted to reach exactly 0 on one row:
    # the derivative is inf there, and the zero edge into that hidden node
    # makes the chain NaN (inf * 0), which the gradient's sums skip
    h = _ref_forward(zeroed, X)[1][:, 1]
    nan_chain = _with_fits(zeroed, {(1, 1, 0): EdgeFit(
        "sqrt", 1.0, -float(h.min()), 1.0, 0.0, 1.0)})
    return {"trained": sym, "pruned": pruned, "zeroed": zeroed,
            "non-finite": broken, "nan-in-chain": nan_chain}


def test_one_pass_mse_and_grad_match_recompute_reference(ci_readout):
    _, X, y = ci_readout
    # the c gradient reads f(u); on identity and zero edges it equals u
    assert set(_fit_bytes(ci_readout[0])[0]) - {"identity", "zero"}
    for label, sym in _reference_nets(ci_readout).items():
        mse, grad = symbolic._mse_and_grad(sym, X, y)
        if label == "non-finite":
            assert mse == 1e30 and not grad.any()
        else:
            assert mse < 1e30 and grad.any()
        # at the read-out's parameters, then away from them; the
        # optimizer's vector gives what a net holding it gives
        for theta in (sym.theta, sym.theta * 1.01 + 0.003):
            moved = sym.with_theta(theta)
            mse, grad = symbolic._mse_and_grad(moved, X, y)
            ref_mse, ref_grad = _ref_mse_and_grad(moved, X, y)
            assert np.float64(mse).tobytes() == \
                np.float64(ref_mse).tobytes(), label
            assert grad.dtype == ref_grad.dtype, label
            assert grad.tobytes() == ref_grad.tobytes(), label
            assert [np.float64(mse).tobytes(), grad.tobytes()] == [
                np.float64(v).tobytes() for v in
                symbolic._mse_and_grad(sym, X, y, theta)], label
            hs = symbolic._forward(moved, X)[0]
            assert [h.tobytes() for h in hs] == \
                [h.tobytes() for h in _ref_forward(moved, X)], label


def test_deep_mse_and_grad_match_recompute_reference(ci_readout):
    # three layers, so that the middle layer's input gradient (summed over
    # its three outputs in j order) reaches the first layer's gradient
    _, X, y = ci_readout
    rng = np.random.default_rng(8)
    shape = (4, 3, 3, 1)
    names = ["identity", "square", "cube", "exp", "sin", "cos"]
    fits = [[[EdgeFit(str(rng.choice(names)), *rng.normal(0.0, 0.6, 4), 1.0)
              for _ in range(d_out)] for _ in range(d_in)]
            for d_in, d_out in zip(shape[:-1], shape[1:])]
    masks = [np.ones((d_in, d_out), dtype=bool)
             for d_in, d_out in zip(shape[:-1], shape[1:])]
    # a pruned middle edge into a node whose output edge is sqrt reaching
    # exactly 0 on one row: the chain into that node is inf there, and
    # the pruned edge must still add nothing
    masks[1][2, 0] = False
    plain = SymbolicKan(shape, fits, masks)
    h = _ref_forward(plain, X)[2][:, 0]
    chain = _with_fits(plain, {(2, 0, 0): EdgeFit(
        "sqrt", 1.0, -float(h.min()), 0.8, 0.1, 1.0)})
    for sym in (plain, chain):
        mse, grad = symbolic._mse_and_grad(sym, X, y)
        assert mse < 1e30 and np.isinf(grad).any() == (sym is chain)
        for point in (sym.theta, sym.theta * 0.97):
            moved = sym.with_theta(point)
            mse, grad = symbolic._mse_and_grad(moved, X, y)
            ref_mse, ref_grad = _ref_mse_and_grad(moved, X, y)
            assert np.float64(mse).tobytes() == \
                np.float64(ref_mse).tobytes()
            assert grad.tobytes() == ref_grad.tobytes()
            assert [h.tobytes() for h in symbolic._forward(moved, X)[0]] == \
                [h.tobytes() for h in _ref_forward(moved, X)]


def test_one_pass_polish_matches_recompute_reference(ci_readout):
    _, X, y = ci_readout
    for label, sym in _reference_nets(ci_readout).items():
        polished = symbolic._polish_last_layer(sym, X, y)
        ref = _ref_polish_last_layer(sym, X, y)
        assert _fit_bytes(polished) == _fit_bytes(ref), label
        # a non-finite output column leaves the net as it was
        unchanged = _fit_bytes(polished) == _fit_bytes(sym)
        assert unchanged == (label == "non-finite"), label
        assert (polished is sym) == unchanged, label


def test_retrain_affine_matches_recompute_reference(ci_readout, monkeypatch):
    _, X, y = ci_readout
    monkeypatch.setattr(symbolic, "_RETRAIN_STEPS", 60)
    for label in ("trained", "zeroed"):
        sym = _reference_nets(ci_readout)[label]
        got, got_mse = retrain_affine(sym, X, y)
        with monkeypatch.context() as m:
            # the objective reads its parameters from the vector the
            # optimizer hands it; the reference reads them from the net
            m.setattr(symbolic, "_mse_and_grad",
                      lambda sym, X, y, theta: _ref_mse_and_grad(
                          sym.with_theta(theta), X, y))
            m.setattr(symbolic, "_polish_last_layer", _ref_polish_last_layer)
            m.setattr(SymbolicKan, "predict",
                      lambda self, X: _ref_forward(self, X)[-1][:, 0])
            want, want_mse = retrain_affine(sym, X, y)
        assert _fit_bytes(got) == _fit_bytes(want), label
        assert np.float64(got_mse).tobytes() == \
            np.float64(want_mse).tobytes(), label
