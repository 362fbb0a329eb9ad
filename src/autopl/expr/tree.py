"""Expression trees stored as prefix token sequences.

Evaluation is vectorized over dataset rows and never raises on numeric
trouble: division by zero, logs of non-positive values, and overflow
flow through as inf/nan for the caller to score.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from autopl.expr.tokens import BINARY_SYMBOLS, Token, TokenKind

# source templates for the compiled evaluator; each operand is a local
# name, so an operand used twice (square) is still computed once
_UNARY_SRC = {
    "log10": "_log10({})",
    "exp": "_exp({})",
    "sin": "_sin({})",
    "cos": "_cos({})",
    "square": "{0} * {0}",
    "sqrt": "_sqrt({})",
}

_BINARY_SRC = {
    "add": "{} + {}",
    "sub": "{} - {}",
    "mul": "{} * {}",
    "div": "{} / {}",
}

_NAMESPACE = {"_log10": np.log10, "_exp": np.exp, "_sin": np.sin,
              "_cos": np.cos, "_sqrt": np.sqrt}


def is_complete(tokens: Sequence[Token]) -> bool:
    """True when the prefix sequence closes exactly one expression."""
    if not tokens:
        return False
    slots = 1
    for i, t in enumerate(tokens):
        slots += t.arity - 1
        if slots == 0:
            return i == len(tokens) - 1
    return False


@dataclass(frozen=True)
class ExpressionTree:
    """A complete prefix sequence plus values for its constant slots.

    Constant placeholders default to 1.0 until a fit assigns them.
    """

    tokens: tuple[Token, ...]
    constants: tuple[float, ...] = field(default=())

    def __post_init__(self):
        tokens = tuple(self.tokens)
        object.__setattr__(self, "tokens", tokens)
        if not is_complete(tokens):
            raise ValueError("token sequence is not a complete prefix expression")
        n_const = sum(1 for t in tokens if t.kind is TokenKind.CONST)
        consts = tuple(float(c) for c in self.constants)
        if not consts and n_const:
            consts = (1.0,) * n_const
        if len(consts) != n_const:
            raise ValueError(
                f"expected {n_const} constants, got {len(consts)}")
        object.__setattr__(self, "constants", consts)

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def n_constants(self) -> int:
        return len(self.constants)

    def with_constants(self, constants: Sequence[float]) -> "ExpressionTree":
        return ExpressionTree(self.tokens, tuple(float(c) for c in constants))

    def key(self) -> tuple:
        """Structural identity ignoring fitted constant values."""
        return tuple((t.name, t.kind.value, t.value) for t in self.tokens)


def _leaf_values(tree: ExpressionTree) -> list[float | None]:
    # constant slot values by token position, prefix order
    values: list[float | None] = []
    it = iter(tree.constants)
    for t in tree.tokens:
        values.append(next(it) if t.kind is TokenKind.CONST else None)
    return values


@functools.lru_cache(maxsize=64)
def _compile(tokens: tuple[Token, ...]):
    """Two straight-line functions for a prefix sequence.

    Each body holds one assignment per token, emitted right to left in the
    order a stack machine would evaluate them, so results match operation
    for operation.  Tokens whose subtree holds no constant slot go to the
    fixed stage ``fixed(X)``, which returns the roots of the largest such
    subtrees; the rest go to the constant stage ``varying(c, F)``, which
    reads those roots from F and the constant slots from c, a float64
    vector in prefix order.  Literals are bound once as float64 scalars.
    Returns both functions and the (name, column) pairs of the variables.
    """
    fixed_lines: list[str] = []
    varying_lines: list[str] = []
    hoisted: list[str] = []  # fixed-stage roots the constant stage reads
    stack: list[tuple[str, bool]] = []  # (local, its subtree holds a slot)
    literals: list[np.float64] = []
    variables: list[tuple[str, int]] = []
    slot = sum(1 for t in tokens if t.kind is TokenKind.CONST)
    for pos in range(len(tokens) - 1, -1, -1):
        t = tokens[pos]
        varying = t.kind is TokenKind.CONST
        if t.kind is TokenKind.VARIABLE:
            if t.var_index is None:
                raise ValueError(f"variable {t.name!r} has no column index")
            variables.append((t.name, int(t.var_index)))
            rhs = f"X[:, {int(t.var_index)}]"
        elif t.kind is TokenKind.LITERAL:
            literals.append(np.float64(t.value))
            rhs = f"_lit[{len(literals) - 1}]"
        elif varying:
            slot -= 1
            rhs = f"c[{slot}]"
        elif t.kind is TokenKind.UNARY:
            a, varying = stack.pop()
            rhs = _UNARY_SRC[t.name].format(a)
        else:
            (a, a_varies), (b, b_varies) = stack.pop(), stack.pop()
            varying = a_varies or b_varies
            # a constant-free operand of a varying node is a fixed root
            if varying and not a_varies:
                hoisted.append(a)
            if varying and not b_varies:
                hoisted.append(b)
            rhs = _BINARY_SRC[t.name].format(a, b)
        (varying_lines if varying else fixed_lines).append(
            f"    t{pos} = {rhs}\n")
        stack.append((f"t{pos}", varying))
    if not stack[0][1]:
        hoisted.append("t0")
    roots = "".join(f"{name}, " for name in hoisted)
    source = ("def fixed(X):\n" + "".join(fixed_lines)
              + f"    return ({roots})\n"
              + "def varying(c, F):\n"
              + (f"    {roots}= F\n" if hoisted else "")
              + "".join(varying_lines) + "    return t0\n")
    namespace = dict(_NAMESPACE, _lit=tuple(literals))
    exec(source, namespace)
    return namespace["fixed"], namespace["varying"], tuple(variables)


@dataclass(frozen=True, slots=True)
class Prepared:
    """The fixed stage of one tree over the rows of one feature matrix:
    the values of its constant-free subtrees, ready for the constant
    stage.  A constant fit holds one for the length of the fit and scores
    every candidate against it."""

    tokens: tuple[Token, ...]
    n_rows: int
    values: tuple
    varying: Callable


def prepare(tree: ExpressionTree, X: np.ndarray) -> Prepared:
    """Check X against the tree's variables and run the fixed stage."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-d (rows, features)")
    fixed, varying, variables = _compile(tree.tokens)
    for name, index in variables:
        if index >= X.shape[1]:
            raise ValueError(f"variable {name!r} outside feature matrix")
    with np.errstate(all="ignore"):
        values = fixed(X)
    return Prepared(tree.tokens, X.shape[0], values, varying)


def evaluate(tree: ExpressionTree, X: np.ndarray | Prepared,
             constants: Sequence[float] | None = None) -> np.ndarray:
    """Evaluate over rows of X, returning one value per row.

    ``constants`` stands in for the tree's own constant values, so a fit
    can score candidate values without building a tree per candidate.
    X is a feature matrix, or what ``prepare`` made of one for this tree;
    then only the constant stage runs, under the caller's floating-point
    error state.  Each token sequence is compiled once and reused.
    Non-finite intermediate results propagate instead of raising.
    """
    if not isinstance(X, Prepared):
        with np.errstate(all="ignore"):
            return evaluate(tree, prepare(tree, X), constants)
    if X.tokens is not tree.tokens and X.tokens != tree.tokens:
        raise ValueError("values were prepared for another expression")
    c = np.asarray(tree.constants if constants is None else constants,
                   dtype=float)
    if c.shape != (tree.n_constants,):
        raise ValueError(
            f"expected {tree.n_constants} constants, got shape {c.shape}")
    out = np.asarray(X.varying(c, X.values), dtype=float)
    if out.ndim == 0:
        out = np.full(X.n_rows, float(out))
    return out


def _render_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return format(v, ".4g")


def to_infix(tree: ExpressionTree) -> str:
    """Human-readable infix string; fitted constants at 4 significant digits."""
    const_vals = _leaf_values(tree)
    pos = 0

    def walk() -> str:
        nonlocal pos
        t = tree.tokens[pos]
        here = pos
        pos += 1
        if t.kind is TokenKind.BINARY:
            a = walk()
            b = walk()
            return f"({a} {BINARY_SYMBOLS[t.name]} {b})"
        if t.kind is TokenKind.UNARY:
            u = walk()
            if t.name == "square":
                return f"({u})^2"
            return f"{t.name}({u})"
        if t.kind is TokenKind.VARIABLE:
            return t.name
        if t.kind is TokenKind.LITERAL:
            return _render_number(t.value)
        return format(const_vals[here], ".4g")

    out = walk()
    if pos != len(tree.tokens):
        raise ValueError("dangling tokens after expression")
    return out


@dataclass(frozen=True)
class ScanResult:
    variables: frozenset[str]
    trig_variables: frozenset[str]


def structural_scan(tree: ExpressionTree) -> ScanResult:
    """Which variables the tree reads, and which sit under sin/cos."""
    from autopl.expr.tokens import TRIG_NAMES

    variables: set[str] = set()
    trig_variables: set[str] = set()

    def walk(pos: int, in_trig: bool) -> int:
        t = tree.tokens[pos]
        nxt = pos + 1
        if t.kind is TokenKind.VARIABLE:
            variables.add(t.name)
            if in_trig:
                trig_variables.add(t.name)
        below = in_trig or t.name in TRIG_NAMES
        for _ in range(t.arity):
            nxt = walk(nxt, below)
        return nxt

    walk(0, False)
    return ScanResult(frozenset(variables), frozenset(trig_variables))


def tree_to_json(tree: ExpressionTree) -> str:
    items = []
    for t in tree.tokens:
        if t.kind is TokenKind.VARIABLE:
            items.append({"var": t.name, "i": t.var_index})
        elif t.kind is TokenKind.LITERAL:
            items.append({"lit": t.value})
        elif t.kind is TokenKind.CONST:
            items.append({"const": True})
        else:
            items.append({"op": t.name, "kind": t.kind.value})
    return json.dumps({"tokens": items, "constants": list(tree.constants)})


def tree_from_json(text: str) -> ExpressionTree:
    obj = json.loads(text)
    tokens: list[Token] = []
    for item in obj["tokens"]:
        if "var" in item:
            tokens.append(Token.variable(item["var"], int(item["i"])))
        elif "lit" in item:
            tokens.append(Token.literal(item["lit"]))
        elif "const" in item:
            tokens.append(Token.const())
        elif item.get("kind") == TokenKind.BINARY.value:
            tokens.append(Token.binary(item["op"]))
        else:
            tokens.append(Token.unary(item["op"]))
    return ExpressionTree(tuple(tokens), tuple(obj.get("constants", ())))
