"""Grammar constraints applied while a prefix sequence is being sampled.

Five rules shape the search space: a length window, a ban on operators
whose children are all constants, a ban on directly nested inverse
unaries, a ban on nested trig functions, and per-token repeat rules.
Minimum repeats are soft (scored by `repeat_penalty`); every other rule
is enforced as a hard mask over the next-token distribution.  The masks
are computed by `PrefixBatch` for a whole batch of prefixes at once;
`PrefixState` is one prefix kept as a one-row batch.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar, Mapping, Sequence

import numpy as np

from autopl.expr.tokens import INVERSE_UNARY, Token, Vocabulary


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
    repeat_rules: Mapping[str, RepeatRule] = field(default_factory=dict)
    # the rules every set enforces
    forbid_all_constant_children: ClassVar[bool] = True
    forbid_inverse_unary_child: ClassVar[bool] = True
    forbid_nested_trig: ClassVar[bool] = True

    def __post_init__(self):
        if not 1 <= self.min_length <= self.max_length:
            raise ValueError("need 1 <= min_length <= max_length")


_ROW = np.zeros(1, dtype=np.intp)  # the only row of a one-row batch


class PrefixBatch:
    """Incremental bookkeeping for a batch of partially sampled prefix
    sequences over one vocabulary, held as arrays with one row per prefix.

    Each row keeps its tokens (as vocabulary indices), its open slot
    count and per-token counts, and a stack of open operator frames.
    A frame records its operator, how many of its children are complete,
    whether all of those are constant leaves, the root of its first
    child (the sibling of the next position), how many frames up to it
    wait only for their last child, and how many trig operators are
    open up to it.  Frame 0 of every row stands for "no open operator";
    token index len(vocab) marks no parent or no sibling.  `mask`
    applies the hard rules to every row at once.
    """

    def __init__(self, vocab: Vocabulary, m: int, capacity: int):
        v = len(vocab)
        self.vocab = vocab
        self.tok = np.zeros((m, capacity), dtype=np.intp)
        self.length = np.zeros(m, dtype=np.intp)
        self.slots = np.ones(m, dtype=np.intp)
        self.counts = np.zeros((m, v), dtype=np.intp)
        # frame 0, and at most one open frame per token after it
        self.depth = np.ones(m, dtype=np.intp)
        self.op = np.full((m, capacity + 1), v, dtype=np.intp)
        self.done = np.zeros((m, capacity + 1), dtype=np.intp)
        self.all_const = np.zeros((m, capacity + 1), dtype=bool)
        self.first = np.full((m, capacity + 1), v, dtype=np.intp)
        self.run = np.zeros((m, capacity + 1), dtype=np.intp)
        self.trig = np.zeros((m, capacity + 1), dtype=np.intp)
        self._rows = np.arange(m)
        self._arity = np.append(vocab.arity_array, 0)
        self._is_trig = np.append(vocab.is_trig, False)
        self._rules: tuple | None = None

    @property
    def capacity(self) -> int:
        return self.tok.shape[1]

    def push(self, rows: np.ndarray, tokens: np.ndarray) -> None:
        """Append vocabulary index tokens[k] to row rows[k].  The rows must
        be distinct, incomplete and below capacity."""
        arity = self._arity
        a = arity[tokens]
        self.tok[rows, self.length[rows]] = tokens
        self.length[rows] += 1
        self.counts[rows, tokens] += 1
        self.slots[rows] += a - 1
        opens = a > 0
        r, o = rows[opens], tokens[opens]
        d = self.depth[r]
        self.op[r, d] = o
        self.done[r, d] = 0
        self.all_const[r, d] = True
        self.first[r, d] = len(self.vocab)
        self.run[r, d] = np.where(arity[o] == 1, self.run[r, d - 1] + 1, 0)
        self.trig[r, d] = self.trig[r, d - 1] + self._is_trig[o]
        self.depth[r] = d + 1
        # a leaf completes a subtree, and so every frame in the run that
        # waits only for its last child; the frame below them (frame 0
        # when the tree is complete) takes the subtree their outermost
        # operator roots, or the leaf if none closed
        r, leaf = rows[~opens], tokens[~opens]
        top = self.depth[r] - 1
        closes = self.run[r, top]
        k = top - closes
        self.depth[r] = k + 1
        root = np.where(closes > 0, self.op[r, k + 1], leaf)
        # a completed operator subtree never counts as a constant: the
        # all-constant rule makes such subtrees unreachable
        const = self.vocab.is_constant_leaf[leaf] & (closes == 0)
        took = k > 0
        r, k, root, const = r[took], k[took], root[took], const[took]
        done = self.done[r, k] + 1
        self.done[r, k] = done
        self.all_const[r, k] &= const
        first = self.first[r, k]
        self.first[r, k] = np.where(first == len(self.vocab), root, first)
        self.run[r, k] = np.where(done == arity[self.op[r, k]] - 1,
                                  self.run[r, k - 1] + 1, 0)

    def context(self) -> tuple[np.ndarray, np.ndarray]:
        """Vocabulary indices of the parent and the sibling of each row's
        next position, len(vocab) where there is none."""
        top = self.depth - 1
        return self.op[self._rows, top], self.first[self._rows, top]

    def _tables(self, cs: ConstraintSet) -> tuple[np.ndarray, np.ndarray]:
        """The hard rules apart from repeat caps, as two tables of token
        masks: one by tokens placed and slots open, one by parent, by
        whether the next child is the last of a frame whose children so
        far are all constant (every open unary frame), and by whether a
        trig operator is open."""
        if self._rules is not None and self._rules[0] is cs:
            return self._rules[1:]
        vocab = self.vocab
        arity = vocab.arity_array
        placed = np.arange(cs.max_length + 1)[:, None, None]
        slots = np.arange(cs.max_length + 2)[None, :, None]
        # a complete prefix (no slots) admits nothing, and the tokens
        # placed plus the slots open after the next one must fit
        by_size = (slots > 0) & (placed + slots + arity <= cs.max_length)
        # no token may close the tree below the minimum length
        by_size &= (placed + 1 >= cs.min_length) | (slots - 1 + arity != 0)
        # indexed [parent, 2 * last child of all-constant frame + in trig]
        by_context = np.ones((len(vocab) + 1, 4, len(vocab)), dtype=bool)
        by_context[:, 1::2] &= ~vocab.is_trig
        by_context[:, 2:] &= ~vocab.is_constant_leaf
        for parent, t in enumerate(vocab):
            inverse = vocab.index.get(INVERSE_UNARY.get(t.name))
            if t.arity == 1 and inverse is not None:
                by_context[parent, :, inverse] = False
        self._rules = (cs, by_size, by_context)
        return by_size, by_context

    def mask(self, cs: ConstraintSet) -> np.ndarray:
        """Boolean validity of each vocabulary token at the next position
        of each row; a complete row admits nothing."""
        by_size, by_context = self._tables(cs)
        rows, top = self._rows, self.depth - 1
        parent = self.op[rows, top]
        # frame 0's operator has arity 0, so it never takes a last child
        last = (self.all_const[rows, top]
                & (self.done[rows, top] == self._arity[parent] - 1))
        # beyond the tables' edges every token is too long anyway
        out = by_size[np.minimum(self.length, cs.max_length),
                      np.minimum(self.slots, cs.max_length + 1)]
        out &= by_context[parent, 2 * last + (self.trig[rows, top] > 0)]
        for name, rule in cs.repeat_rules.items():
            j = self.vocab.index.get(name)
            if rule.max_count is not None and j is not None:
                out[:, j] &= self.counts[:, j] < rule.max_count
        return out


def _one_row(vocab: Vocabulary, tokens: Sequence[Token]) -> PrefixBatch:
    row = PrefixBatch(vocab, 1, max(2 * len(tokens), 16))
    for t in tokens:
        row.push(_ROW, np.array([vocab.index[t.name]]))
    return row


class PrefixState:
    """One partially sampled prefix sequence: a one-row `PrefixBatch`.

    Exposes the open operator frame (for parent/sibling conditioning),
    the pending slot count, trig nesting depth and per-name token
    counts.  The row is held over the vocabulary of the last `mask`
    call (or the one given up front, which saves rebuilding the row on
    the first call), and before that over a vocabulary of its own tokens.
    """

    def __init__(self, vocab: Vocabulary | None = None):
        self.tokens: list[Token] = []
        self._row = _one_row(vocab, ()) if vocab is not None else None

    def _over(self, vocab: Vocabulary | None = None) -> PrefixBatch:
        row = self._row
        if row is None or (vocab is not None and vocab is not row.vocab):
            if vocab is None:
                vocab = Vocabulary(dict.fromkeys(self.tokens))
            row = self._row = _one_row(vocab, self.tokens)
        return row

    @property
    def length(self) -> int:
        return len(self.tokens)

    @property
    def slots(self) -> int:
        return int(self._over().slots[0])

    @property
    def trig_depth(self) -> int:
        row = self._over()
        return int(row.trig[0, row.depth[0] - 1])

    @property
    def counts(self) -> Counter[str]:
        row = self._over()
        return Counter({row.vocab[j].name: int(row.counts[0, j])
                        for j in np.flatnonzero(row.counts[0])})

    @property
    def is_complete(self) -> bool:
        return bool(self.tokens) and self.slots == 0

    @property
    def parent(self) -> Token | None:
        return self._token(0)

    @property
    def sibling(self) -> Token | None:
        # root token of the previous completed child under the open frame
        return self._token(1)

    def _token(self, which: int) -> Token | None:
        row = self._over()
        j = int(row.context()[which][0])
        return row.vocab[j] if j < len(row.vocab) else None

    def push(self, token: Token) -> None:
        if self.is_complete:
            raise ValueError("expression already complete")
        self.tokens.append(token)
        row = self._row
        j = row.vocab.index.get(token.name) if row is not None else None
        if j is None or row.length[0] == row.capacity:
            self._row = None  # rebuilt from the tokens when next needed
        else:
            row.push(_ROW, np.array([j]))

    def mask(self, cs: ConstraintSet, vocab: Vocabulary) -> np.ndarray:
        """Boolean validity of each vocabulary token at the next position;
        every token of the prefix must be in vocab."""
        return self._over(vocab).mask(cs)[0]


_SOFT_REPEAT_WEIGHT = 0.5  # reward share lost per missing occurrence


def repeat_penalty(tokens: Sequence[Token], cs: ConstraintSet) -> float:
    """Multiplicative reward discount for unmet minimum-repeat rules.

    Each missing occurrence multiplies the reward by
    (1 - _SOFT_REPEAT_WEIGHT); a sequence meeting every minimum scores 1.
    """
    counts = Counter(t.name for t in tokens)
    deficit = 0
    for name, rule in cs.repeat_rules.items():
        deficit += max(0, rule.min_count - counts[name])
    return (1.0 - _SOFT_REPEAT_WEIGHT) ** deficit
