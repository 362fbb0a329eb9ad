"""Expression trees stored as prefix token sequences.

Evaluation is vectorized over dataset rows and never raises on numeric
trouble: division by zero, logs of non-positive values, and overflow
flow through as inf/nan for the caller to score.

A tree is evaluated in two stages.  The fixed stage computes its
constant-free subtrees by walking a step list; the constant stage, which
only a tree with a constant slot has, is generated source compiled once
per token sequence and rerun for each candidate a constant fit scores.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from autopl.expr.tokens import BINARY_SYMBOLS, TRIG_NAMES, Token, TokenKind

# templates for both stages: the constant stage's source and the fixed
# stage's per-op functions; each operand is a name, so an operand used
# twice (square) is still computed once
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

# the fixed stage's per-op functions, made from the same templates
_UNARY_FN = {name: eval(f"lambda a: {src.format('a')}", dict(_NAMESPACE))
             for name, src in _UNARY_SRC.items()}
_BINARY_FN = {name: eval(f"lambda a, b: {src.format('a', 'b')}")
              for name, src in _BINARY_SRC.items()}


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


def is_complete(tokens: Sequence[Token]) -> bool:
    """True when the prefix sequence closes exactly one expression."""
    return _count_constants(tokens) is not None


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


def _walk(steps: tuple, literals: tuple, roots: tuple[int, ...],
          X: np.ndarray) -> tuple:
    # registers: X, the literals, then one value per step
    r = [X, *literals]
    for fn, a, b in steps:
        r.append(fn(r[a]) if b is None else fn(r[a], r[b]))
    return tuple([r[i] for i in roots])


@functools.lru_cache(maxsize=64)
def _compile(tokens: tuple[Token, ...]):
    """The two stages of a prefix sequence.

    Tokens are taken right to left, in the order a stack machine would
    evaluate them, so results match operation for operation.  Tokens
    whose subtree holds no constant slot form the fixed stage
    ``fixed(X)``: a step list walked with per-op functions made from the
    same templates, returning the roots of the largest such subtrees.
    Only a tree with a constant slot gets a constant stage
    ``varying(c, F)``, generated as straight-line source and ``exec``'d;
    it reads the roots from F and slot j from c[j], slots in prefix
    order.  A constant-free tree's value is its fixed stage's one root,
    and its ``varying`` is None.  Literals are float64 scalars.  Returns
    ``fixed``, ``varying`` and the variables' (name, column) pairs.
    """
    n_literals = sum(1 for t in tokens if t.kind is TokenKind.LITERAL)
    literals: list[np.float64] = []
    steps: list[tuple] = []
    register: dict[int, int] = {}  # position -> register, fixed stage
    varying_lines: list[str] = []
    hoisted: list[int] = []  # positions of the roots the constant stage reads
    stack: list[tuple[int, bool]] = []  # (position, its subtree holds a slot)
    variables: list[tuple[str, int]] = []
    slot = sum(1 for t in tokens if t.kind is TokenKind.CONST)
    for pos in range(len(tokens) - 1, -1, -1):
        t = tokens[pos]
        varying = t.kind is TokenKind.CONST
        if t.kind is TokenKind.VARIABLE:
            if t.var_index is None:
                raise ValueError(f"variable {t.name!r} has no column index")
            variables.append((t.name, int(t.var_index)))
            steps.append((operator.itemgetter((slice(None), int(t.var_index))),
                          0, None))
        elif t.kind is TokenKind.LITERAL:
            literals.append(np.float64(t.value))
            register[pos] = len(literals)
        elif varying:
            slot -= 1
            varying_lines.append(f"    t{pos} = c[{slot}]\n")
        elif t.kind is TokenKind.UNARY:
            a, varying = stack.pop()
            if varying:
                varying_lines.append(
                    f"    t{pos} = {_UNARY_SRC[t.name].format(f't{a}')}\n")
            else:
                steps.append((_UNARY_FN[t.name], register[a], None))
        else:
            (a, a_varies), (b, b_varies) = stack.pop(), stack.pop()
            varying = a_varies or b_varies
            if varying:
                # a constant-free operand of a varying node is a root
                if not a_varies:
                    hoisted.append(a)
                if not b_varies:
                    hoisted.append(b)
                rhs = _BINARY_SRC[t.name].format(f"t{a}", f"t{b}")
                varying_lines.append(f"    t{pos} = {rhs}\n")
            else:
                steps.append((_BINARY_FN[t.name], register[a], register[b]))
        if not varying and t.kind is not TokenKind.LITERAL:
            register[pos] = n_literals + len(steps)
        stack.append((pos, varying))
    if stack[0][1]:
        names = "".join(f"t{pos}, " for pos in hoisted)
        source = ("def varying(c, F):\n"
                  + (f"    {names}= F\n" if hoisted else "")
                  + "".join(varying_lines) + "    return t0\n")
        namespace = dict(_NAMESPACE)
        exec(source, namespace)
        constant_stage = namespace["varying"]
    else:
        constant_stage = None
        hoisted.append(0)
    fixed = functools.partial(_walk, tuple(steps), tuple(literals),
                              tuple(register[pos] for pos in hoisted))
    return fixed, constant_stage, tuple(variables)


@dataclass(frozen=True, slots=True)
class Prepared:
    """The fixed stage of one tree over the rows of one feature matrix:
    the values of its constant-free subtrees, ready for the constant
    stage.  A constant fit holds one for the length of the fit and scores
    every candidate against it."""

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
    # the walk meets the constant slots in prefix order
    constants = iter(tree.constants)
    pos = 0

    def walk() -> str:
        nonlocal pos
        t = tree.tokens[pos]
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
        return format(next(constants), ".4g")

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
