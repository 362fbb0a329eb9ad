"""Constant fitting inside expression trees."""

import math

import numpy as np
import pytest
from scipy import optimize

from autopl.expr import constfit
from autopl.expr.constfit import optimize_constants
from autopl.expr.tokens import Token
from autopl.expr.tree import ExpressionTree, evaluate, prepare

ADD = Token.binary("add")
MUL = Token.binary("mul")
SUB = Token.binary("sub")
LOG = Token.unary("log10")
C = Token.const()
X0 = Token.variable("x", 0)


def test_fit_linear_constants():
    rng = np.random.default_rng(0)
    X = rng.uniform(1.0, 10.0, size=(80, 1))
    y = 3.5 * X[:, 0] - 2.0
    tree = ExpressionTree((ADD, MUL, C, X0, C))
    res = optimize_constants(tree, X, y)
    assert res.fittable
    assert res.mse == pytest.approx(0.0, abs=1e-8)
    assert res.tree.constants[0] == pytest.approx(3.5, abs=1e-3)
    assert res.tree.constants[1] == pytest.approx(-2.0, abs=1e-3)


def test_fit_log_model():
    rng = np.random.default_rng(1)
    X = rng.uniform(1.0, 500.0, size=(120, 1))
    y = 20.0 * np.log10(X[:, 0]) + 32.4
    tree = ExpressionTree((ADD, MUL, C, LOG, X0, C))
    res = optimize_constants(tree, X, y)
    assert res.fittable and res.mse < 1e-6
    assert res.tree.constants[0] == pytest.approx(20.0, abs=1e-2)


def test_no_constants_returns_plain_mse():
    X = np.array([[1.0], [2.0], [3.0]])
    y = X[:, 0] + 1.0
    res = optimize_constants(ExpressionTree((X0,)), X, y)
    assert res.fittable
    assert res.mse == pytest.approx(1.0)
    assert res.tree.constants == ()


def test_unfittable_tree_flagged():
    X = np.array([[1.0], [2.0]])
    y = np.array([0.0, 0.0])
    # log10(x - x) is -inf for every row, no constant can rescue it
    tree = ExpressionTree((ADD, C, LOG, SUB, X0, X0))
    res = optimize_constants(tree, X, y)
    assert not res.fittable
    assert res.mse == float("inf")


def test_fit_is_deterministic():
    rng = np.random.default_rng(2)
    X = rng.uniform(0.5, 4.0, size=(60, 1))
    y = 1.7 * X[:, 0] ** 2
    tree = ExpressionTree((MUL, C, Token.unary("square"), X0))
    a = optimize_constants(tree, X, y)
    b = optimize_constants(tree, X, y)
    assert a.tree.constants == b.tree.constants
    assert a.mse == b.mse


def test_fit_improves_over_default_constants():
    rng = np.random.default_rng(3)
    X = rng.uniform(1.0, 9.0, size=(50, 1))
    y = 0.05 * X[:, 0] + 40.0
    tree = ExpressionTree((ADD, MUL, C, X0, C))
    before = float(np.mean((evaluate(tree, X) - y) ** 2))
    res = optimize_constants(tree, X, y)
    assert res.mse < before


def _stack_evaluate(tokens, constants, X):
    # reference: a plain stack machine over the prefix sequence that
    # recomputes every subtree on every call
    fns = {"log10": np.log10, "exp": np.exp, "sin": np.sin, "cos": np.cos,
           "square": lambda a: a * a, "sqrt": np.sqrt,
           "add": np.add, "sub": np.subtract, "mul": np.multiply,
           "div": np.divide}
    consts = iter(reversed(constants))
    stack = []
    for t in reversed(tokens):
        if t.arity == 2:
            a = stack.pop()
            stack.append(fns[t.name](a, stack.pop()))
        elif t.arity == 1:
            stack.append(fns[t.name](stack.pop()))
        elif t.var_index is not None:
            stack.append(X[:, t.var_index])
        elif t.value is not None:
            stack.append(np.float64(t.value))
        else:
            stack.append(np.float64(next(consts)))
    return np.broadcast_to(stack.pop(), X.shape[:1])


def _reference_fit(tree, X, y, max_iter, scored=None):
    # the fit as a scipy Nelder-Mead over the stack-machine objective,
    # with optimize_constants' starts and settings; every candidate it
    # scores is appended to `scored`, by bytes
    def objective(c):
        if scored is not None:
            scored.append(np.asarray(c, dtype=float).tobytes())
        with np.errstate(all="ignore"):
            pred = _stack_evaluate(tree.tokens, c, X)
            if not np.isfinite(pred).all():
                return float("inf")
            return float(np.mean((pred - y) ** 2))

    best_c = np.asarray(tree.constants, dtype=float)
    best_mse = objective(best_c)
    k = tree.n_constants
    with np.errstate(invalid="ignore", over="ignore"):
        for x0 in (np.ones(k), np.full(k, 0.1)):
            res = optimize.minimize(objective, x0, method="Nelder-Mead",
                                    options={"maxiter": max_iter, "xatol": 1e-8,
                                             "fatol": 1e-10})
            if np.isfinite(res.fun) and res.fun < best_mse:
                best_mse = float(res.fun)
                best_c = np.asarray(res.x, dtype=float)
    return tuple(float(c) for c in best_c), best_mse


def _random_trees(rng, n, n_const=(1, 3)):
    ops = [ADD, SUB, MUL, Token.binary("div"), LOG, Token.unary("exp"),
           Token.unary("sin"), Token.unary("cos"), Token.unary("square"),
           Token.unary("sqrt")]
    leaves = [X0, Token.variable("f", 1), C, Token.literal(3)]
    trees = []
    while len(trees) < n:
        tokens, slots = [], 1
        while slots:
            if len(tokens) < 12 and rng.random() < 0.6:
                t = ops[rng.integers(len(ops))]
            else:
                t = leaves[rng.integers(len(leaves))]
            tokens.append(t)
            slots += t.arity - 1
        if n_const[0] <= sum(t is C for t in tokens) <= n_const[1]:
            trees.append(ExpressionTree(tuple(tokens)))
    return trees


def _fit_problem():
    rng = np.random.default_rng(11)
    X = np.column_stack([rng.uniform(-2.0, 4.0, 40), rng.uniform(0.5, 3.0, 40)])
    y = 2.0 * np.log10(np.abs(X[:, 0]) + 1.0) + np.sin(X[:, 1])
    return rng, X, y


def test_fit_matches_stack_machine_reference_bit_for_bit():
    rng, X, y = _fit_problem()
    # non-finite at the all-ones start, finite from the 0.1 start
    sqrt_edge = ExpressionTree((Token.unary("sqrt"), SUB, Token.variable("f", 1),
                                MUL, C, Token.literal(3)))
    fittable = 0
    for tree in [sqrt_edge] + _random_trees(rng, 100):
        res = optimize_constants(tree, X, y)
        want_c, want_mse = _reference_fit(tree, X, y, max_iter=100)
        assert res.mse == want_mse, tree.tokens
        if res.fittable:
            fittable += 1
            assert res.tree.constants == want_c, tree.tokens
        else:
            assert want_mse == float("inf")
    # both outcomes are exercised
    assert 0 < fittable < 101


def _reference_never_finite(tree, X, scored):
    # every candidate the reference scored is non-finite on some row
    with np.errstate(all="ignore"):
        return not any(
            np.isfinite(_stack_evaluate(tree.tokens, np.frombuffer(c), X)).all()
            for c in scored)


LOG_ZERO = (LOG, SUB, X0, X0)  # log10(x - x): -inf on every row


def _record_evaluate(monkeypatch):
    # the bytes of every constant vector the fit hands to constfit.evaluate
    # to score in full, and the (candidates, rows) shape of each batched call
    evaluated, blocks = [], []
    real_evaluate = constfit.evaluate

    def recording_evaluate(tree, X, constants=None):
        out = real_evaluate(tree, X, constants)
        if out.ndim == 1:
            evaluated.append(np.asarray(constants, dtype=float).tobytes())
        else:
            blocks.append(out.shape)
        return out

    monkeypatch.setattr(constfit, "evaluate", recording_evaluate)
    return evaluated, blocks


def _record_dead_end_paths():
    # the paths are recorded by running the search itself, so record them
    # before a test replaces it
    for k in range(1, 5):
        constfit._dead_end_path(k)


def _record_searches(monkeypatch):
    # one entry per Nelder-Mead run a fit starts
    _record_dead_end_paths()
    searches = []
    real_nelder_mead = constfit._nelder_mead

    def recording_nelder_mead(func, x0, *args, **kwargs):
        searches.append(np.asarray(x0).tobytes())
        return real_nelder_mead(func, x0, *args, **kwargs)

    monkeypatch.setattr(constfit, "_nelder_mead", recording_nelder_mead)
    return searches


def _forbid_search(monkeypatch):
    _record_dead_end_paths()

    def no_search(*args, **kwargs):
        raise AssertionError("the fit ran a search")

    monkeypatch.setattr(constfit, "_nelder_mead", no_search)


def _is_subsequence(part, whole):
    it = iter(whole)
    return all(c in it for c in part)


@pytest.mark.parametrize("tokens", [
    (ADD, C, LOG, X0),
    (Token.binary("div"), C, Token.unary("exp"), MUL, C, LOG, X0),
    (ADD, C) + LOG_ZERO,
    (MUL, C) + LOG_ZERO,
    (Token.binary("div"),) + LOG_ZERO + (C,),
    (LOG, MUL, C) + LOG_ZERO,
    (Token.unary("square"), ADD, C) + LOG_ZERO,
], ids=["nan", "nan-under-exp-denominator", "add", "mul", "numerator",
        "log10", "square"])
def test_fit_settled_without_search(monkeypatch, tokens):
    # non-finite at the start, and on every point of the dead-end path
    rng, X, y = _fit_problem()
    tree = ExpressionTree(tokens)
    scored = []
    _, want_mse = _reference_fit(tree, X, y, 100, scored)
    assert want_mse == float("inf")
    assert _reference_never_finite(tree, X, scored)
    _forbid_search(monkeypatch)
    res = optimize_constants(tree, X, y)
    assert (res.tree, res.mse, res.fittable) == (tree, float("inf"), False)


@pytest.mark.parametrize("tokens", [
    (Token.binary("div"), C) + LOG_ZERO,
    (Token.unary("exp"), MUL, C) + LOG_ZERO,
], ids=["denominator", "exp"])
def test_fit_searches_when_inf_can_turn_finite(monkeypatch, tokens):
    # c / -inf and exp(c * -inf) are finite for c > 0
    rng, X, y = _fit_problem()
    tree = ExpressionTree(tokens)
    scored = []
    want_c, want_mse = _reference_fit(tree, X, y, 100, scored)
    evaluated, _ = _record_evaluate(monkeypatch)
    res = optimize_constants(tree, X, y)
    assert evaluated == list(dict.fromkeys(scored))
    assert res.fittable
    assert (res.tree.constants, res.mse) == (want_c, want_mse)


def test_fit_scores_each_candidate_through_module_evaluate(monkeypatch):
    rng, X, y = _fit_problem()
    evaluated, blocks = _record_evaluate(monkeypatch)
    searches = _record_searches(monkeypatch)
    repeats = skipped = 0
    for tree in _random_trees(rng, 10):
        scored = []
        _, want_mse = _reference_fit(tree, X, y, 100, scored)
        with np.errstate(all="ignore"):
            start = _stack_evaluate(tree.tokens, tree.constants, X)
        evaluated.clear()
        blocks.clear()
        searches.clear()
        res = optimize_constants(tree, X, y)
        assert res.mse == want_mse, tree.tokens
        want = list(dict.fromkeys(scored))
        # each candidate scored in full at most once, in scipy's order
        assert len(set(evaluated)) == len(evaluated), tree.tokens
        assert _is_subsequence(evaluated, want), tree.tokens
        if np.isfinite(start).all():
            # the starting constants, then every distinct simplex
            # candidate of both starts
            assert evaluated == want, tree.tokens
            assert blocks == [], tree.tokens
        else:
            # one batched call on at most 16 rows the start left
            # non-finite; what it skips is non-finite for the reference
            assert len(blocks) == 1 and blocks[0][1] <= 16, tree.tokens
            assert _reference_never_finite(
                tree, X, set(want) - set(evaluated)), tree.tokens
        if want_mse == float("inf") and not np.isfinite(start).all():
            # settled: the searches would score only non-finite points
            assert searches == [], tree.tokens
            skipped += 1
        else:
            assert len(searches) == 2, tree.tokens
        repeats += len(scored) - len(evaluated)
    assert repeats > 0
    assert 0 < skipped < 10
    evaluated.clear()
    optimize_constants(ExpressionTree((X0,)), X, y)
    assert len(evaluated) == 1


@pytest.mark.parametrize("max_iter", [constfit._FIT_MAXITER])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_dead_end_path_is_what_scipy_scores_when_every_score_is_inf(k, max_iter):
    scored = []

    def inf_objective(c):
        scored.append(np.asarray(c, dtype=float).tobytes())
        return float("inf")

    options = {"maxiter": max_iter, "xatol": 1e-8, "fatol": 1e-10}
    with np.errstate(invalid="ignore"):
        for x0 in (np.ones(k), np.full(k, 0.1)):
            optimize.minimize(inf_objective, x0, method="Nelder-Mead",
                              options=options)
    path = constfit._dead_end_path(k)
    assert path.shape[1] == k
    assert [c.tobytes() for c in path] == list(dict.fromkeys(scored))


F1 = Token.variable("f", 1)
LOG_SIN = (LOG, Token.unary("sin"), MUL, C, F1)  # log10(sin(c * f))


def _sin_problem(*f_ranges):
    # sin(c * f) is negative for c * f in (pi, 2 pi), so log10(sin(f)) is
    # NaN over (5, 2 pi), and finite from c = 1.05 on over (6, 6.2);
    # log10(sin(0.1 * f)) is finite over (5, 6.2), but not over (35, 37)
    rng = np.random.default_rng(4)
    f = np.concatenate([rng.uniform(lo, hi, 20) for lo, hi in f_ranges])
    X = np.column_stack([np.ones_like(f), f])
    return X, np.log10(np.sin(0.08 * f)) + rng.normal(0.0, 0.01, f.size)


def test_fit_scores_in_full_the_points_witnesses_leave(monkeypatch):
    # the witnesses are the first 16 rows, finite near c = 0.1; the rows
    # over (35, 37) are not, so the fit is still settled without a search
    X, y = _sin_problem((5.0, 6.2), (35.0, 37.0))
    assert (X[:16, 1] > 6.0).any()
    tree = ExpressionTree(LOG_SIN)
    scored = []
    _, want_mse = _reference_fit(tree, X, y, 100, scored)
    assert want_mse == float("inf")
    evaluated, blocks = _record_evaluate(monkeypatch)
    _forbid_search(monkeypatch)
    res = optimize_constants(tree, X, y)
    assert (res.tree, res.mse, res.fittable) == (tree, float("inf"), False)
    assert blocks == [(len(constfit._dead_end_path(1)), 16)]
    # the start, then in scipy's order each point finite on all 16
    # witnesses: here those of the 0.1 start
    with np.errstate(all="ignore"):
        left = [c for c in dict.fromkeys(scored) if np.isfinite(
            _stack_evaluate(tree.tokens, np.frombuffer(c), X[:16])).all()]
    assert evaluated == [scored[0]] + left
    assert len(left) > 10 and left[0] == np.array([0.1]).tobytes()


def test_fit_non_finite_at_start_but_fittable_elsewhere(monkeypatch):
    X, y = _sin_problem((5.0, 6.2), (5.0, 6.2))
    tree = ExpressionTree(LOG_SIN)
    scored = []
    want_c, want_mse = _reference_fit(tree, X, y, 100, scored)
    evaluated, blocks = _record_evaluate(monkeypatch)
    searches = _record_searches(monkeypatch)
    res = optimize_constants(tree, X, y)
    assert res.fittable and len(searches) == 2 and len(blocks) == 1
    # the ones start's points are settled by the witnesses and not scored
    # in full again when the search passes them
    assert len(set(evaluated)) == len(evaluated)
    assert _is_subsequence(evaluated, list(dict.fromkeys(scored)))
    assert np.array([1.05]).tobytes() not in evaluated
    assert (res.tree.constants, res.mse) == (want_c, want_mse)
    assert res.tree.constants[0] == pytest.approx(0.08, abs=1e-3)


def test_fit_searches_when_only_the_mse_sum_overflows(monkeypatch):
    # c * exp(x) is finite on every row, and so is its square, but at
    # c = 1 the squares sum past the largest double; no row is a witness
    rng = np.random.default_rng(6)
    X = rng.uniform(353.5, 354.5, size=(40, 1))
    y = rng.normal(size=40)
    tree = ExpressionTree((MUL, C, Token.unary("exp"), X0))
    with np.errstate(all="ignore"):
        assert np.isfinite(evaluate(tree, X) ** 2).all()
        assert np.mean(evaluate(tree, X) ** 2) == float("inf")
    want_c, want_mse = _reference_fit(tree, X, y, 100)
    evaluated, blocks = _record_evaluate(monkeypatch)
    searches = _record_searches(monkeypatch)
    res = optimize_constants(tree, X, y)
    assert blocks == [] and len(searches) == 2
    assert res.fittable
    assert (res.tree.constants, res.mse) == (want_c, want_mse)


SQRT_EDGE = (Token.unary("sqrt"), SUB, F1, MUL, C, Token.literal(3))


@pytest.mark.parametrize("tokens, constants", [
    (SQRT_EDGE, (0.1,)),
    (SQRT_EDGE, (5.0,)),
    (LOG_SIN, (0.05,)),
    ((ADD, C) + LOG_ZERO, (3.0,)),
    ((Token.binary("div"), C, Token.unary("exp"), MUL, C, LOG, X0),
     (2.0, -1.0)),
], ids=["finite", "non-finite-then-fittable", "sign-flip", "settled",
        "settled-nan"])
def test_fit_from_start_constants_other_than_ones(tokens, constants):
    rng, X, y = _fit_problem()
    tree = ExpressionTree(tokens, constants)
    want_c, want_mse = _reference_fit(tree, X, y, 100)
    res = optimize_constants(tree, X, y)
    assert res.mse == want_mse
    assert res.tree.constants == (want_c if res.fittable else constants)
    assert res.fittable == (want_mse != float("inf"))


def test_fit_keys_candidates_by_exact_bytes(monkeypatch):
    # exp(1 / c) is inf at c = 0.0 and 0 at c = -0.0
    tree = ExpressionTree((Token.unary("exp"), Token.binary("div"),
                           Token.literal(1), C))
    X = np.ones((3, 1))
    y = np.array([1.0, 2.0, 3.0])
    evaluated, _ = _record_evaluate(monkeypatch)
    mses = []

    def stub_nelder_mead(func, x0, *args, **kwargs):
        mses.append((func(np.array([0.0])), func(np.array([-0.0]))))
        return list(x0), math.inf

    monkeypatch.setattr(constfit, "_nelder_mead", stub_nelder_mead)
    optimize_constants(tree, X, y)
    assert evaluated == [np.array([c]).tobytes() for c in (1.0, 0.0, -0.0)]
    assert mses == [(math.inf, float(np.mean(y ** 2)))] * 2


def _counted(f):
    calls = []

    def g(x):
        calls.append(1)
        return f(x)
    return g, calls


def _tied_objectives(rng, n):
    # a smooth bowl, the same bowl walled off by an inf or a NaN
    # half-space, and rounded copies whose plateaus tie vertices with
    # each other and with inf; then one that is inf everywhere
    t = rng.uniform(-2.0, 2.0, n)
    w = rng.uniform(0.1, 3.0, n)
    u = rng.normal(size=n)
    wall = rng.uniform(-0.5, 0.5)

    def bowl(x):
        return float(np.sum(w * (x - t) ** 2))

    def walled(x):
        return math.inf if float(np.dot(x - t, u)) > wall else bowl(x)

    def nan_walled(x):
        return math.nan if float(np.dot(x - t, u)) > wall else bowl(x)

    return [bowl, walled,
            lambda x: round(bowl(x), 1),
            lambda x: round(walled(x), 0),
            nan_walled,
            lambda x: round(nan_walled(x), 0),
            lambda x: math.inf]


def test_nelder_mead_takes_scipys_steps():
    rng = np.random.default_rng(21)
    options = {"maxiter": 100, "xatol": 1e-8, "fatol": 1e-10}
    for n in (1, 2, 3, 4):
        for _ in range(8):
            for f in _tied_objectives(rng, n):
                for x0 in (np.ones(n), np.full(n, 0.1)):
                    ours, our_calls = _counted(f)
                    x, fun = constfit._nelder_mead(ours, x0, **options)
                    ref, ref_calls = _counted(f)
                    with np.errstate(invalid="ignore"):
                        res = optimize.minimize(ref, x0, method="Nelder-Mead",
                                                options=options)
                    assert np.array(x).tobytes() == res.x.tobytes()
                    # NaN != NaN: a NaN minimum is NaN on both sides
                    assert fun == res.fun or (math.isnan(fun)
                                              and math.isnan(res.fun))
                    assert len(our_calls) == len(ref_calls) == res.nfev
