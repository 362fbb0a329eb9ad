"""Token alphabet for prefix-notation expression trees.

A vocabulary is an ordered tuple of tokens; the order is part of its
identity because policy networks index logits by position.  The default
alphabet holds the four arithmetic operators, a unary function set,
one fittable constant placeholder, the integer literals 1..10, and one
variable token per dataset feature.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Token:
    name: str
    kind: TokenKind
    value: float | None = None
    var_index: int | None = None

    @property
    def arity(self) -> int:
        if self.kind is TokenKind.BINARY:
            return 2
        if self.kind is TokenKind.UNARY:
            return 1
        return 0

    @property
    def is_operator(self) -> bool:
        return self.arity > 0

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
        self.arities: tuple[int, ...] = tuple(t.arity for t in self.tokens)
        # per-token tables for vectorized constraint masks
        self.arity_array = np.array(self.arities, dtype=int)
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

    def by_name(self, name: str) -> Token:
        try:
            return self.tokens[self.index[name]]
        except KeyError:
            raise KeyError(f"token {name!r} not in vocabulary") from None

    @property
    def variables(self) -> tuple[Token, ...]:
        return tuple(t for t in self.tokens if t.kind is TokenKind.VARIABLE)

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
