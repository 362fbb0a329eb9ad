"""One partially sampled prefix as a one-row view over `PrefixBatch`, the
sampler's own bookkeeping, for tests that follow a single prefix token
by token."""

from collections import Counter

import numpy as np

from autopl.expr.constraints import PrefixBatch

_ROW = np.zeros(1, dtype=np.intp)


class PrefixRow:
    def __init__(self, vocab, capacity=64):
        self.vocab = vocab
        self.tokens = []
        self._batch = PrefixBatch(vocab, 1, capacity)

    def push(self, token):
        if self.is_complete:
            raise ValueError("expression already complete")
        self._batch.push(_ROW, np.array([self.vocab.index[token.name]]))
        self.tokens.append(token)

    def mask(self, cs):
        return self._batch.mask(cs)[0]

    @property
    def slots(self):
        return int(self._batch.slots[0])

    @property
    def is_complete(self):
        return self.slots == 0

    @property
    def counts(self):
        row = self._batch.counts[0]
        return Counter({self.vocab[j].name: int(row[j])
                        for j in np.flatnonzero(row)})

    @property
    def trig_depth(self):
        b = self._batch
        return int(b.trig[0, b.depth[0] - 1])

    @property
    def parent(self):
        return self._token(self._batch.context()[0][0])

    @property
    def sibling(self):
        # root token of the previous completed child under the open frame
        return self._token(self._batch.context()[1][0])

    def _token(self, j):
        return self.vocab[int(j)] if j < len(self.vocab) else None
