"""Prefix-tree mechanics: completeness, evaluation, rendering, scan.

The infix renderer and the evaluator are cross-checked against sympy as
an independent parser/evaluator.
"""

import builtins

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import autopl.expr.tree as tree_module
from autopl.expr.tokens import Token, TokenKind
from autopl.expr.tree import (
    ExpressionTree,
    evaluate,
    prepare,
    structural_scan,
    to_infix,
    tree_from_json,
    tree_to_json,
)

ADD = Token.binary("add")
SUB = Token.binary("sub")
MUL = Token.binary("mul")
DIV = Token.binary("div")
LOG = Token.unary("log10")
EXP = Token.unary("exp")
SIN = Token.unary("sin")
COS = Token.unary("cos")
SQ = Token.unary("square")
C = Token.const()
X0 = Token.variable("d", 0)
X1 = Token.variable("f", 1)


def test_is_complete():
    # a tree takes exactly the sequences that close one expression
    for tokens in [(X0,), (ADD, X0, X1), (ADD, MUL, X0, X1, LOG, X0)]:
        assert ExpressionTree(tokens).tokens == tokens
    for tokens in [(), (ADD,), (ADD, X0), (ADD, X0, X1, X0), (X0, X1)]:
        with pytest.raises(ValueError):
            ExpressionTree(tokens)


def test_tree_rejects_incomplete_sequences():
    with pytest.raises(ValueError):
        ExpressionTree((ADD, X0))
    with pytest.raises(ValueError):
        ExpressionTree((ADD, X0, X1, X1))


def test_constants_default_to_one():
    t = ExpressionTree((ADD, C, MUL, C, X0))
    assert t.constants == (1.0, 1.0)
    t2 = t.with_constants([2.5, -3.0])
    assert t2.constants == (2.5, -3.0)
    with pytest.raises(ValueError):
        t.with_constants([1.0])


def test_evaluate_basic():
    X = np.array([[1.0, 2.0], [3.0, 4.0], [10.0, 0.5]])
    got = evaluate(ExpressionTree((ADD, X0, X1)), X)
    assert np.allclose(got, [3.0, 7.0, 10.5])
    got = evaluate(ExpressionTree((SUB, X0, X1)), X)
    assert np.allclose(got, [-1.0, -1.0, 9.5])
    got = evaluate(ExpressionTree((MUL, LOG, X0, Token.literal(10))), X)
    assert np.allclose(got, [0.0, 10.0 * np.log10(3.0), 10.0])


def test_evaluate_operand_order():
    # prefix (div a b) must compute a/b, not b/a
    X = np.array([[8.0, 2.0]])
    got = evaluate(ExpressionTree((DIV, X0, X1)), X)
    assert got[0] == pytest.approx(4.0)


def test_evaluate_constants_in_prefix_order():
    X = np.array([[2.0, 0.0]])
    tree = ExpressionTree((ADD, MUL, C, X0, C), constants=(3.0, -5.0))
    assert evaluate(tree, X)[0] == pytest.approx(1.0)


def test_evaluate_non_finite_flows_through():
    X = np.array([[0.0, -1.0], [1.0, 1.0]])
    got = evaluate(ExpressionTree((DIV, X1, X0)), X)
    assert not np.isfinite(got[0]) and np.isfinite(got[1])
    got = evaluate(ExpressionTree((LOG, X1)), X)
    assert np.isnan(got[0]) and got[1] == 0.0
    # exp overflow saturates to inf silently
    got = evaluate(ExpressionTree((EXP, MUL, X0, Token.literal(10000))),
                   np.array([[1.0, 0.0]]))
    assert np.isinf(got[0])


def test_evaluate_constant_only_tree_broadcasts():
    tree = ExpressionTree((ADD, Token.literal(2), Token.literal(3)))
    got = evaluate(tree, np.zeros((4, 2)))
    assert got.shape == (4,)
    assert np.allclose(got, 5.0)


def test_evaluate_constants_override():
    X = np.array([[2.0, 0.0], [-1.0, 4.0]])
    tree = ExpressionTree((ADD, MUL, C, X0, C), constants=(3.0, -5.0))
    got = evaluate(tree, X, np.array([1.5, 2.0]))
    assert np.array_equal(got, evaluate(tree.with_constants([1.5, 2.0]), X))
    assert np.array_equal(evaluate(tree, X), [1.0, -8.0])
    with pytest.raises(ValueError):
        evaluate(tree, X, [1.0])


def test_evaluate_prepared_values():
    # the fixed stage (log10(d), 3 - f) runs once; candidates reuse it
    X = np.array([[2.0, 1.0], [10.0, 4.0], [0.5, -2.0]])
    tree = ExpressionTree((ADD, MUL, C, LOG, X0, SUB, Token.literal(3), X1))
    fixed = prepare(tree, X)
    for c in ([1.0], [-2.5], [1e308]):
        assert np.array_equal(evaluate(tree, fixed, c), evaluate(tree, X, c))
    with pytest.raises(ValueError):
        evaluate(ExpressionTree((ADD, C, X0)), fixed, [1.0])


def test_evaluate_rejects_missing_variable_column():
    with pytest.raises(ValueError):
        evaluate(ExpressionTree((ADD, X0, X1)), np.zeros((3, 1)))


def _stack_evaluate(tree, X):
    # reference: a plain stack machine over the prefix sequence
    fns = {"log10": np.log10, "exp": np.exp, "sin": np.sin, "cos": np.cos,
           "square": lambda a: a * a, "sqrt": np.sqrt,
           "add": np.add, "sub": np.subtract, "mul": np.multiply,
           "div": np.divide}
    consts = iter(reversed(tree.constants))
    stack = []
    with np.errstate(all="ignore"):
        for t in reversed(tree.tokens):
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


def test_evaluate_matches_stack_machine_bit_for_bit():
    rng = np.random.default_rng(7)
    X = rng.uniform(-3.0, 3.0, (64, 2))
    ops = [ADD, SUB, MUL, DIV, LOG, EXP, SIN, COS, SQ, Token.unary("sqrt")]
    leaves = [X0, X1, C, Token.literal(3)]
    for _ in range(200):
        tokens, slots = [], 1
        while slots:
            if len(tokens) < 12 and rng.random() < 0.6:
                t = ops[rng.integers(len(ops))]
            else:
                t = leaves[rng.integers(len(leaves))]
            tokens.append(t)
            slots += t.arity - 1
        n_const = sum(t is C for t in tokens)
        tree = ExpressionTree(tuple(tokens),
                              tuple(rng.normal(0.0, 2.0, n_const)))
        assert np.array_equal(evaluate(tree, X), _stack_evaluate(tree, X),
                              equal_nan=True)


def test_evaluate_deep_tree():
    # nesting far beyond the recursion limit: both stages walk a flat
    # step list
    depth = 2000
    deep = (ADD, X0) * depth + (X1,)
    X = np.array([[0.5, 1.0]])
    assert evaluate(ExpressionTree(deep), X)[0] == pytest.approx(
        depth * 0.5 + 1.0)
    # slot at the top: the deep part is the walked fixed stage
    top = ExpressionTree((ADD, C) + deep, constants=(2.0,))
    assert evaluate(top, X)[0] == pytest.approx(depth * 0.5 + 3.0)
    # slot at the bottom: the deep part is the constant stage
    bottom = ExpressionTree((ADD, X0) * depth + (C,), constants=(2.0,))
    assert evaluate(bottom, X)[0] == pytest.approx(depth * 0.5 + 2.0)
    # rendering and scanning walk flat loops too
    assert to_infix(top) == "(2 + " + "(d + " * depth + "f" + ")" * (depth + 1)
    assert to_infix(bottom) == "(d + " * depth + "2" + ")" * depth
    scan = structural_scan(ExpressionTree((SIN,) + deep))
    assert scan.variables == scan.trig_variables == {"d", "f"}
    assert structural_scan(bottom).trig_variables == frozenset()


def test_each_sequence_is_compiled_once_without_source(monkeypatch):
    def no_source(*args, **kwargs):
        raise AssertionError("the evaluator generated source")

    monkeypatch.setattr(builtins, "exec", no_source)
    monkeypatch.setattr(builtins, "eval", no_source)
    tree_module._compile.cache_clear()
    X = np.array([[2.0, 1.0], [10.0, 4.0]])
    free = ExpressionTree((ADD, LOG, X0, Token.literal(7)))
    for _ in range(2):
        assert np.array_equal(evaluate(free, X), np.log10(X[:, 0]) + 7.0)
    slotted = ExpressionTree((ADD, MUL, C, LOG, X0, C), constants=(2.0, 3.0))
    evaluate(slotted, X)
    hits = tree_module._compile.cache_info().hits
    for c in ([1.0, 0.0], [-2.0, 5.0]):
        assert np.array_equal(evaluate(slotted, X, c),
                              c[0] * np.log10(X[:, 0]) + c[1])
    assert tree_module._compile.cache_info().hits == hits + 2
    assert tree_module._compile.cache_info().misses == 2


def test_to_infix_formatting():
    assert to_infix(ExpressionTree((ADD, X0, X1))) == "(d + f)"
    assert to_infix(ExpressionTree((SQ, X0))) == "(d)^2"
    assert to_infix(ExpressionTree((MUL, LOG, X0, Token.literal(10)))) == "(log10(d) * 10)"
    t = ExpressionTree((ADD, C, X0), constants=(3.14159265,))
    assert to_infix(t) == "(3.142 + d)"
    t = ExpressionTree((ADD, Token.literal(41.52), X0))
    assert to_infix(t) == "(41.52 + d)"


_SYMPY_CASES = [
    ExpressionTree((ADD, MUL, Token.literal(10), LOG, X0, SUB, X1, C),
                   constants=(2.25,)),
    ExpressionTree((DIV, EXP, MUL, C, X1, ADD, X0, Token.literal(3)),
                   constants=(0.125,)),
    ExpressionTree((MUL, SIN, X1, SQ, ADD, X0, Token.literal(2))),
    ExpressionTree((SUB, COS, X1, DIV, X0, X1)),
]


@pytest.mark.parametrize("tree", _SYMPY_CASES)
def test_infix_round_trips_through_sympy(tree):
    d, f = sympy.symbols("d f")
    locals_map = {"d": d, "f": f, "log10": lambda u: sympy.log(u, 10)}
    expr = sympy.sympify(to_infix(tree), locals=locals_map)
    fn = sympy.lambdify((d, f), expr, "numpy")
    rng = np.random.default_rng(0)
    X = rng.uniform(0.5, 4.0, size=(50, 2))
    assert np.allclose(evaluate(tree, X), fn(X[:, 0], X[:, 1]), rtol=1e-9)


def test_structural_scan():
    scan = structural_scan(ExpressionTree((ADD, X0, X1)))
    assert scan.variables == {"d", "f"}
    assert scan.trig_variables == frozenset()
    scan = structural_scan(ExpressionTree((ADD, SIN, LOG, X0, X1)))
    assert scan.trig_variables == {"d"}
    scan = structural_scan(ExpressionTree((COS, ADD, X0, MUL, C, X1)))
    assert scan.trig_variables == {"d", "f"}
    scan = structural_scan(ExpressionTree((MUL, C, LOG, X0)))
    assert scan.variables == {"d"} and scan.trig_variables == frozenset()


def test_json_round_trip():
    tree = ExpressionTree((ADD, MUL, C, LOG, X0, SUB, Token.literal(7), SIN, X1),
                          constants=(1.0 / 3.0,))
    back = tree_from_json(tree_to_json(tree))
    assert back.tokens == tree.tokens
    assert back.constants == tree.constants
    X = np.random.default_rng(1).uniform(1.0, 5.0, (20, 2))
    assert np.array_equal(evaluate(back, X), evaluate(tree, X))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_OPS = [ADD, SUB, MUL, DIV, LOG, EXP, SIN, COS, SQ, Token.unary("sqrt")]


@st.composite
def _trees(draw):
    # a complete prefix sequence: operators until 15 tokens, then leaves
    leaves = st.one_of(st.sampled_from([X0, X1, C]),
                       _FINITE.map(Token.literal))
    tokens, slots = [], 1
    while slots:
        ops = st.sampled_from(_OPS) if len(tokens) < 15 else st.nothing()
        t = draw(st.one_of(ops, leaves))
        tokens.append(t)
        slots += t.arity - 1
    n_const = sum(t.kind is TokenKind.CONST for t in tokens)
    constants = draw(st.lists(_FINITE, min_size=n_const, max_size=n_const))
    return ExpressionTree(tuple(tokens), tuple(constants))


@settings(max_examples=200, deadline=None)
@given(_trees())
def test_json_round_trip_property(tree):
    back = tree_from_json(tree_to_json(tree))
    assert back == tree
    assert to_infix(back) == to_infix(tree)


@settings(max_examples=200, deadline=None)
@given(_trees(), st.data())
def test_evaluate_candidate_matrix_matches_single_calls(tree, data):
    # an (m, k) candidate matrix on a row subset gives, row for row, the
    # bits of one call per candidate on every row
    k = tree.n_constants
    cands = data.draw(st.lists(st.lists(_FINITE, min_size=k, max_size=k),
                               min_size=1, max_size=4))
    cands = np.array(cands, dtype=float).reshape(len(cands), k)
    X = np.random.default_rng(5).uniform(-3.0, 400.0, size=(7, 2))
    rows = np.array(data.draw(st.lists(st.integers(0, 6), min_size=1,
                                       max_size=7)))
    with np.errstate(all="ignore"):
        block = evaluate(tree, prepare(tree, X).take(rows), cands)
    assert block.shape == (len(cands), len(rows))
    for c, got in zip(cands, block):
        assert got.tobytes() == evaluate(tree, X, c)[rows].tobytes()


def _edge_values():
    # near exp's overflow and log10's and sqrt's zero, subnormals, large
    # trig arguments (frequencies in Hz), signs, and non-finite values
    rng = np.random.default_rng(9)
    edges = np.array([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300,
                      709.782712893384, 709.7827128933841, -745.1332191019411,
                      -745.1332191019412, 1e9, 2.8e10, np.pi, 1e308,
                      np.inf, -np.inf, np.nan])
    near = np.concatenate([
        709.78 + rng.uniform(-0.01, 0.01, 400),
        -745.13 + rng.uniform(-0.01, 0.01, 400),
        np.ldexp(rng.uniform(0.5, 1.0, 400), rng.integers(-1074, -1000, 400)),
        rng.uniform(-1e-12, 1e-12, 400),
        rng.uniform(1e8, 1e11, 400),
    ])
    values = np.concatenate([edges, -edges, near, -near,
                             rng.normal(scale=50.0, size=2000)])
    return values[:values.size // 8 * 8]


@pytest.mark.parametrize("fn", [np.exp, np.log10, np.sin, np.cos, np.sqrt],
                         ids=lambda fn: fn.__name__)
def test_transcendentals_give_the_same_bits_in_every_shape(fn):
    # a constant fit's dead-end check evaluates candidates as (m, rows)
    # blocks and (m, 1) columns, and relies on their bits matching the
    # 1-d rows and scalars the search evaluates
    v = _edge_values()
    with np.errstate(all="ignore"):
        want = np.array([fn(np.float64(x)) for x in v])
        assert np.array([fn(np.array(x)) for x in v]).tobytes() == want.tobytes()
        assert fn(v).tobytes() == want.tobytes()
        block = v.reshape(-1, 8)
        assert fn(block).tobytes() == want.tobytes()
        assert fn(block[:, :1]).tobytes() == want[::8].tobytes()
        assert fn(block[:, ::3]).tobytes() == want.reshape(-1, 8)[:, ::3].tobytes()
        assert fn(block.T).T.tobytes() == want.tobytes()


def test_tree_key_ignores_constant_values():
    a = ExpressionTree((ADD, C, X0), constants=(1.0,))
    b = ExpressionTree((ADD, C, X0), constants=(9.0,))
    c = ExpressionTree((ADD, Token.literal(1), X0))
    assert a.key() == b.key()
    assert a.key() != c.key()
