"""Grammar constraints applied while a prefix sequence is being sampled.

Five rules shape the search space: a length window, a ban on operators
whose children are all constants, a ban on directly nested inverse
unaries, a ban on nested trig functions, and per-token repeat rules.
Minimum repeats are soft (scored by `repeat_penalty`); every other rule
is enforced as a hard mask over the next-token distribution.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from autopl.expr.tokens import INVERSE_UNARY, TRIG_NAMES, Token, TokenKind, Vocabulary


@dataclass(frozen=True)
class RepeatRule:
    """Occurrence bounds for one token name.

    min_count is a soft target: sequences below it survive but their
    reward is discounted.  max_count is hard.
    """

    min_count: int = 0
    max_count: int | None = None

    def __post_init__(self):
        if self.min_count < 0:
            raise ValueError("min_count must be non-negative")
        if self.max_count is not None and self.max_count < max(self.min_count, 1):
            raise ValueError("max_count must be at least max(min_count, 1)")


@dataclass(frozen=True)
class ConstraintSet:
    min_length: int = 4
    max_length: int = 40
    forbid_all_constant_children: bool = True
    forbid_inverse_unary_child: bool = True
    forbid_nested_trig: bool = True
    repeat_rules: Mapping[str, RepeatRule] = field(default_factory=dict)
    soft_repeat_weight: float = 0.5

    def __post_init__(self):
        if not 1 <= self.min_length <= self.max_length:
            raise ValueError("need 1 <= min_length <= max_length")
        if not 0.0 < self.soft_repeat_weight < 1.0:
            raise ValueError("soft_repeat_weight must lie strictly in (0, 1)")


class _Frame:
    __slots__ = ("token", "children_done", "all_const", "first_child")

    def __init__(self, token: Token):
        self.token = token
        self.children_done = 0
        self.all_const = True
        self.first_child: Token | None = None


class PrefixState:
    """Incremental bookkeeping for a partially sampled prefix sequence.

    Tracks open operator frames (for parent/sibling conditioning and the
    child-composition rules), pending slot count, trig nesting depth,
    and per-name token counts.
    """

    def __init__(self):
        self.tokens: list[Token] = []
        self.slots = 1
        self.counts: Counter[str] = Counter()
        self.trig_depth = 0
        self._stack: list[_Frame] = []

    @property
    def length(self) -> int:
        return len(self.tokens)

    @property
    def is_complete(self) -> bool:
        return self.slots == 0 and bool(self.tokens)

    @property
    def parent(self) -> Token | None:
        return self._stack[-1].token if self._stack else None

    @property
    def sibling(self) -> Token | None:
        # root token of the previous completed child under the open frame
        if self._stack and self._stack[-1].children_done >= 1:
            return self._stack[-1].first_child
        return None

    def push(self, token: Token) -> None:
        if self.is_complete:
            raise ValueError("expression already complete")
        self.tokens.append(token)
        self.counts[token.name] += 1
        if token.is_operator:
            self.slots += token.arity - 1
            if token.name in TRIG_NAMES:
                self.trig_depth += 1
            self._stack.append(_Frame(token))
            return
        self.slots -= 1
        self._close(token, token.is_constant_leaf)

    def _close(self, subtree_root: Token, subtree_const: bool) -> None:
        while self._stack:
            frame = self._stack[-1]
            frame.children_done += 1
            frame.all_const = frame.all_const and subtree_const
            if frame.first_child is None:
                frame.first_child = subtree_root
            if frame.children_done < frame.token.arity:
                return
            self._stack.pop()
            if frame.token.name in TRIG_NAMES:
                self.trig_depth -= 1
            # a completed operator subtree never counts as a constant:
            # the all-const mask below makes such subtrees unreachable
            subtree_root = frame.token
            subtree_const = False

    def mask(self, cs: ConstraintSet, vocab: Vocabulary) -> np.ndarray:
        """Boolean validity of each vocabulary token at the next position."""
        if self.is_complete:
            return np.zeros(len(vocab), dtype=bool)
        length_after = self.length + 1
        slots_after = self.slots - 1 + vocab.arity_array
        out = length_after + slots_after <= cs.max_length
        if length_after < cs.min_length:
            out &= slots_after != 0
        for name, rule in cs.repeat_rules.items():
            if rule.max_count is not None and name in vocab.index \
                    and self.counts[name] + 1 > rule.max_count:
                out[vocab.index[name]] = False
        if cs.forbid_nested_trig and self.trig_depth > 0:
            out &= ~vocab.is_trig
        parent = self.parent
        if parent is None:
            return out
        if parent.kind is TokenKind.UNARY:
            inverse = INVERSE_UNARY.get(parent.name)
            if cs.forbid_inverse_unary_child and inverse in vocab.index:
                out[vocab.index[inverse]] = False
            if cs.forbid_all_constant_children:
                out &= ~vocab.is_constant_leaf
        elif cs.forbid_all_constant_children:
            frame = self._stack[-1]
            if frame.children_done == parent.arity - 1 and frame.all_const:
                out &= ~vocab.is_constant_leaf
        return out


def valid_next_tokens(prefix: Sequence[Token] | PrefixState,
                      cs: ConstraintSet, vocab: Vocabulary) -> np.ndarray:
    """Mask of admissible next tokens for a partial prefix sequence."""
    if isinstance(prefix, PrefixState):
        return prefix.mask(cs, vocab)
    state = PrefixState()
    for t in prefix:
        state.push(t)
    return state.mask(cs, vocab)


def repeat_penalty(tokens: Sequence[Token], cs: ConstraintSet) -> float:
    """Multiplicative reward discount for unmet minimum-repeat rules.

    Each missing occurrence multiplies the reward by
    (1 - soft_repeat_weight); a sequence meeting every minimum scores 1.
    """
    counts = Counter(t.name for t in tokens)
    deficit = 0
    for name, rule in cs.repeat_rules.items():
        deficit += max(0, rule.min_count - counts[name])
    return (1.0 - cs.soft_repeat_weight) ** deficit
