"""Token alphabet for prefix-notation expression trees.

A vocabulary is an ordered tuple of tokens; the order is part of its
identity because policy networks index logits by position.  The default
alphabet holds the four arithmetic operators, a unary function set,
one fittable constant placeholder, the integer literals 1..10, and one
variable token per dataset feature.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


class TokenKind(enum.Enum):
    BINARY = "binary"
    UNARY = "unary"
    VARIABLE = "variable"
    CONST = "const"
    LITERAL = "literal"


BINARY_NAMES = ("add", "sub", "mul", "div")
UNARY_NAMES = ("log10", "exp", "sin", "cos", "square", "sqrt")
DEFAULT_UNARY = ("log10", "exp", "sin", "cos", "square")
TRIG_NAMES = frozenset({"sin", "cos"})
# unary pairs that cancel when directly nested
INVERSE_UNARY = {"log10": "exp", "exp": "log10", "sqrt": "square", "square": "sqrt"}
BINARY_SYMBOLS = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
_ARITY = {TokenKind.BINARY: 2, TokenKind.UNARY: 1, TokenKind.VARIABLE: 0,
          TokenKind.CONST: 0, TokenKind.LITERAL: 0}


@dataclass(frozen=True)
class Token:
    name: str
    kind: TokenKind
    value: float | None = None
    var_index: int | None = None
    # read off the kind once, as a plain attribute: every sequence a policy
    # samples is validated token by token.  Not part of equality or hash.
    arity: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "arity", _ARITY[self.kind])

    @property
    def is_constant_leaf(self) -> bool:
        return self.kind in (TokenKind.CONST, TokenKind.LITERAL)

    @staticmethod
    def binary(name: str) -> "Token":
        if name not in BINARY_NAMES:
            raise ValueError(f"unknown binary operator {name!r}")
        return Token(name, TokenKind.BINARY)

    @staticmethod
    def unary(name: str) -> "Token":
        if name not in UNARY_NAMES:
            raise ValueError(f"unknown unary operator {name!r}")
        return Token(name, TokenKind.UNARY)

    @staticmethod
    def variable(name: str, index: int) -> "Token":
        return Token(name, TokenKind.VARIABLE, var_index=index)

    @staticmethod
    def const() -> "Token":
        return Token("C", TokenKind.CONST)

    @staticmethod
    def literal(value: float) -> "Token":
        v = float(value)
        if not np.isfinite(v):
            raise ValueError(f"literal {v!r} is not finite")
        label = str(int(v)) if v == int(v) else repr(v)
        return Token(label, TokenKind.LITERAL, value=v)


class Vocabulary:
    """Ordered token set with name lookup."""

    def __init__(self, tokens: Sequence[Token]):
        self.tokens: tuple[Token, ...] = tuple(tokens)
        names = [t.name for t in self.tokens]
        if len(set(names)) != len(names):
            raise ValueError("vocabulary token names must be unique")
        self.index: dict[str, int] = {t.name: i for i, t in enumerate(self.tokens)}
        # per-token tables for vectorized constraint masks
        self.arity_array = np.array([t.arity for t in self.tokens], dtype=int)
        self.is_constant_leaf = np.array(
            [t.is_constant_leaf for t in self.tokens], dtype=bool)
        self.is_trig = np.array([t.name in TRIG_NAMES for t in self.tokens],
                                dtype=bool)

    def __len__(self) -> int:
        return len(self.tokens)

    def __getitem__(self, i: int) -> Token:
        return self.tokens[i]

    def __iter__(self):
        return iter(self.tokens)

    @classmethod
    def default(cls, feature_names: Iterable[str], *,
                unary: Sequence[str] = DEFAULT_UNARY,
                literals: Iterable[int] = range(1, 11),
                include_const: bool = True) -> "Vocabulary":
        tokens = [Token.binary(n) for n in BINARY_NAMES]
        tokens += [Token.unary(n) for n in unary]
        if include_const:
            tokens.append(Token.const())
        tokens += [Token.literal(v) for v in literals]
        tokens += [Token.variable(n, i) for i, n in enumerate(feature_names)]
        return cls(tokens)
