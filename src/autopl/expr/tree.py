"""Expression trees stored as prefix token sequences.

Evaluation is vectorized over dataset rows and never raises on numeric
trouble: division by zero, logs of non-positive values, and overflow
flow through as inf/nan for the caller to score.

A tree is evaluated in two stages, each a list of steps that one
interpreter walks over a register per token position.  The fixed stage
computes the constant-free subtrees from X; the constant stage, which
only a tree with a constant slot has, computes the nodes above a slot
and is rerun for each candidate a constant fit scores.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from autopl.expr.tokens import BINARY_SYMBOLS, TRIG_NAMES, Token, TokenKind

# the function a step calls for each operator; square multiplies its
# operand by itself, so the operand is computed once
_OPS: dict[str, Callable] = {
    "log10": np.log10,
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "square": lambda a: a * a,
    "sqrt": np.sqrt,
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
}


def _count_constants(tokens: Sequence[Token]) -> int | None:
    """Constant slots of a prefix sequence that closes exactly one
    expression, or None when it does not; a single pass."""
    const = TokenKind.CONST
    slots, n_const = 1, 0
    for t in tokens:
        if not slots:
            return None
        slots += t.arity - 1
        if t.kind is const:
            n_const += 1
    return None if slots else n_const


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
        n_const = _count_constants(tokens)
        if n_const is None:
            raise ValueError("token sequence is not a complete prefix expression")
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


def _run(steps: tuple, r: list) -> list:
    """Walk a step list over the registers r.  A step (pos, fn, a, b)
    writes r[pos] = fn(r[a]), or fn(r[a], r[b]) when b is not None."""
    for pos, fn, a, b in steps:
        r[pos] = fn(r[a]) if b is None else fn(r[a], r[b])
    return r


def _fixed_stage(steps: tuple, seed: tuple, X: np.ndarray) -> tuple:
    # X sits in the register past the last position
    return tuple(_run(steps, [*seed, X])[:-1])


def _constant_stage(steps: tuple, slots: tuple, c: np.ndarray,
                    values: tuple):
    r = list(values)
    for pos, value in zip(slots, c):
        r[pos] = value
    return _run(steps, r)[0]


@functools.lru_cache(maxsize=64)
def _compile(tokens: tuple[Token, ...]):
    """The two stages of a prefix sequence, as step lists for `_run`
    over one register per token position.

    Tokens are taken right to left, in the order a stack machine would
    evaluate them, so results match operation for operation.  Tokens
    whose subtree holds no constant slot form the fixed stage
    ``fixed(X)``: its registers start with the literals, as float64
    scalars, and X, and it returns them with each constant-free
    subtree's value at its root's position and None at the others.
    Only a tree with a constant slot gets a constant stage
    ``varying(c, F)``: it starts from those registers F with c[j] at
    slot j's position, slots in prefix order, and returns position 0's
    value.  A constant-free tree's value is its fixed stage's position
    0, and its ``varying`` is None.  Returns ``fixed``, ``varying`` and
    the variables' (name, column) pairs.
    """
    n = len(tokens)
    seed: list = [None] * n
    fixed_steps: list[tuple] = []
    varying_steps: list[tuple] = []
    slots: list[int] = []  # positions of the constant slots, last first
    stack: list[tuple[int, bool]] = []  # (position, its subtree holds a slot)
    variables: list[tuple[str, int]] = []
    for pos in range(n - 1, -1, -1):
        t = tokens[pos]
        varying = t.kind is TokenKind.CONST
        if t.kind is TokenKind.VARIABLE:
            if t.var_index is None:
                raise ValueError(f"variable {t.name!r} has no column index")
            variables.append((t.name, int(t.var_index)))
            fixed_steps.append(
                (pos, operator.itemgetter((slice(None), int(t.var_index))),
                 n, None))
        elif t.kind is TokenKind.LITERAL:
            seed[pos] = np.float64(t.value)
        elif varying:
            slots.append(pos)
        else:
            a, a_varies = stack.pop()
            b, b_varies = stack.pop() if t.arity == 2 else (None, False)
            varying = a_varies or b_varies
            steps = varying_steps if varying else fixed_steps
            steps.append((pos, _OPS[t.name], a, b))
        stack.append((pos, varying))
    constant_stage = None
    if stack[0][1]:
        constant_stage = functools.partial(
            _constant_stage, tuple(varying_steps), tuple(reversed(slots)))
    fixed = functools.partial(_fixed_stage, tuple(fixed_steps), tuple(seed))
    return fixed, constant_stage, tuple(variables)


@dataclass(frozen=True, slots=True)
class Prepared:
    """The fixed stage of one tree over the rows of one feature matrix:
    the values of its constant-free subtrees by token position, ready
    for the constant stage.  A constant fit holds one for the length of
    the fit and scores every candidate against it."""

    tokens: tuple[Token, ...]
    n_rows: int
    values: tuple
    varying: Callable | None

    def take(self, rows: np.ndarray) -> "Prepared":
        """The same values on the given rows only (an index array)."""
        values = tuple(v[rows] if np.ndim(v) else v for v in self.values)
        return Prepared(self.tokens, len(rows), values, self.varying)


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
    An (m, k) matrix of candidates gives an (m, rows) result, one row per
    candidate, with the same bits as m single calls.  X is a feature
    matrix, or what ``prepare`` made of one for this tree; then only the
    constant stage runs, under the caller's floating-point error state.
    Each token sequence is compiled once and reused.
    Non-finite intermediate results propagate instead of raising.
    """
    if not isinstance(X, Prepared):
        with np.errstate(all="ignore"):
            return evaluate(tree, prepare(tree, X), constants)
    if X.tokens is not tree.tokens and X.tokens != tree.tokens:
        raise ValueError("values were prepared for another expression")
    c = np.asarray(tree.constants if constants is None else constants,
                   dtype=float)
    if c.ndim not in (1, 2) or c.shape[-1] != tree.n_constants:
        raise ValueError(
            f"expected {tree.n_constants} constants, got shape {c.shape}")
    shape = c.shape[:-1] + (X.n_rows,)
    if c.ndim == 2:
        # slot j as an (m, 1) column, broadcast against the rows
        c = c.T[:, :, None]
    out = X.values[0] if X.varying is None else X.varying(c, X.values)
    out = np.asarray(out, dtype=float)
    if out.shape != shape:
        out = np.broadcast_to(out, shape).copy()
    return out


def _render_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return format(v, ".4g")


def to_infix(tree: ExpressionTree) -> str:
    """Human-readable infix string; fitted constants at 4 significant digits."""
    # right to left, as `_compile` walks, so the constant slots come last
    # first; a binary operator's left operand is on top of the stack
    constants = reversed(tree.constants)
    stack: list[str] = []
    for t in reversed(tree.tokens):
        if t.kind is TokenKind.BINARY:
            a = stack.pop()
            stack.append(f"({a} {BINARY_SYMBOLS[t.name]} {stack.pop()})")
        elif t.kind is TokenKind.UNARY:
            u = stack.pop()
            stack.append(f"({u})^2" if t.name == "square" else f"{t.name}({u})")
        elif t.kind is TokenKind.VARIABLE:
            stack.append(t.name)
        elif t.kind is TokenKind.LITERAL:
            stack.append(_render_number(t.value))
        else:
            stack.append(format(next(constants), ".4g"))
    return stack[0]


@dataclass(frozen=True)
class ScanResult:
    variables: frozenset[str]
    trig_variables: frozenset[str]


def structural_scan(tree: ExpressionTree) -> ScanResult:
    """Which variables the tree reads, and which sit under sin/cos."""
    variables: set[str] = set()
    trig_variables: set[str] = set()
    # whether each open position sits under sin/cos; the next one last
    under_trig = [False]
    for t in tree.tokens:
        in_trig = under_trig.pop()
        if t.kind is TokenKind.VARIABLE:
            variables.add(t.name)
            if in_trig:
                trig_variables.add(t.name)
        under_trig += [in_trig or t.name in TRIG_NAMES] * t.arity
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
        if not isinstance(item, dict):
            raise ValueError(f"token {item!r} is not an object")
        if "var" in item:
            i = item["i"]
            if type(i) is not int:  # bool is an int subclass
                raise ValueError(f"variable index {i!r} is not an integer")
            tokens.append(Token.variable(item["var"], i))
        elif "lit" in item:
            tokens.append(Token.literal(item["lit"]))
        elif "const" in item:
            tokens.append(Token.const())
        elif item.get("kind") == TokenKind.BINARY.value:
            tokens.append(Token.binary(item["op"]))
        else:
            tokens.append(Token.unary(item["op"]))
    return ExpressionTree(tuple(tokens), tuple(obj.get("constants", ())))
