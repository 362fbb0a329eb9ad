"""Prefix-tree mechanics: completeness, evaluation, rendering, scan.

The infix renderer and the evaluator are cross-checked against sympy as
an independent parser/evaluator.
"""

import numpy as np
import pytest
import sympy

from autopl.expr import (
    ExpressionTree,
    Token,
    evaluate,
    is_complete,
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
    assert not is_complete(())
    assert is_complete((X0,))
    assert not is_complete((ADD,))
    assert not is_complete((ADD, X0))
    assert is_complete((ADD, X0, X1))
    assert not is_complete((ADD, X0, X1, X0))  # trailing token
    assert is_complete((ADD, MUL, X0, X1, LOG, X0))
    assert not is_complete((X0, X1))


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
    # nesting far beyond any parser limit on parenthesised source
    depth = 2000
    tree = ExpressionTree((ADD, X0) * depth + (X1,))
    X = np.array([[0.5, 1.0]])
    assert evaluate(tree, X)[0] == pytest.approx(depth * 0.5 + 1.0)


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


def test_tree_key_ignores_constant_values():
    a = ExpressionTree((ADD, C, X0), constants=(1.0,))
    b = ExpressionTree((ADD, C, X0), constants=(9.0,))
    c = ExpressionTree((ADD, Token.literal(1), X0))
    assert a.key() == b.key()
    assert a.key() != c.key()
