"""Autoregressive sequence policy for symbolic regression.

A single gated recurrent cell conditions each generation step on the
parent and sibling of the position being filled, emits logits over the
token vocabulary, and samples under the hard constraint mask.  Sampling
and the teacher-forced replay that gradients need run one unroll, which
derives every step's mask and input from the tokens so far; so a replay
record is a sequence's token indices plus its constraint set.  Sampling
keeps its own per-step activations, which the update made under the
same parameters reads in place of a replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from autopl.errors import TrainingError
from autopl.expr.constraints import ConstraintSet, PrefixBatch
from autopl.expr.tokens import Vocabulary
from autopl.expr.tree import ExpressionTree

_INIT_SCALE = 0.1
_RESAMPLE_CAP = 50


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp of a non-positive number never overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


class PolicyNetwork:
    """Gated recurrent policy over a fixed token vocabulary."""

    PARAM_NAMES = ("wz", "wr", "wc", "uz", "ur", "uc",
                   "bz", "br", "bc", "wo", "bo")

    def __init__(self, vocab: Vocabulary, hidden_size: int = 32, seed: int = 0):
        if hidden_size < 1:
            raise ValueError("hidden_size must be positive")
        self.vocab = vocab
        self.n_tokens = len(vocab)
        self.hidden_size = int(hidden_size)
        # parent and sibling slots, each with an extra "empty" marker
        self.input_size = 2 * (self.n_tokens + 1)
        rng = np.random.default_rng(seed)
        d, h, v = self.input_size, self.hidden_size, self.n_tokens
        shapes = [(d, h)] * 3 + [(h, h)] * 3 + [(h,)] * 3 + [(h, v), (v,)]
        self.params: dict[str, np.ndarray] = {
            name: rng.uniform(-_INIT_SCALE, _INIT_SCALE, shape)
            for name, shape in zip(self.PARAM_NAMES, shapes)}

    # -- parameter vector ---------------------------------------------------

    def get_params(self) -> np.ndarray:
        return np.concatenate([self.params[n].ravel() for n in self.PARAM_NAMES])

    def set_params(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=float)
        pos = 0
        for n in self.PARAM_NAMES:
            p = self.params[n]
            block = theta[pos:pos + p.size]
            if block.size != p.size:
                raise ValueError("parameter vector has wrong length")
            self.params[n] = block.reshape(p.shape).copy()
            pos += p.size
        if pos != theta.size:
            raise ValueError("parameter vector has wrong length")

    # -- recurrent step -----------------------------------------------------

    def step(self, x: np.ndarray, h: np.ndarray):
        """One cell update for a batch of step inputs; returns the pieces
        needed for backprop."""
        p = self.params
        z = _sigmoid(x @ p["wz"] + h @ p["uz"] + p["bz"])
        r = _sigmoid(x @ p["wr"] + h @ p["ur"] + p["br"])
        rh = r * h
        c = np.tanh(x @ p["wc"] + rh @ p["uc"] + p["bc"])
        h_new = (1.0 - z) * h + z * c
        logits = h_new @ p["wo"] + p["bo"]
        return h_new, logits, (z, r, rh, c)

    def encode_step_inputs(self, parent: np.ndarray, sibling: np.ndarray,
                           on: np.ndarray | bool = True) -> np.ndarray:
        """Parent/sibling one-hot pairs, one row per pair of vocabulary
        indices; index n_tokens (no parent or no sibling) is the empty
        marker.  Rows where `on` is false stay all zero."""
        x = np.zeros((parent.size, self.input_size))
        rows = np.arange(parent.size)
        x[rows, parent] = on
        x[rows, self.n_tokens + 1 + sibling] = on
        return x


def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax restricted to masked-in entries; masked-out mass is exactly 0.

    Rows whose mask is entirely false come back as all zeros.
    """
    logits = np.asarray(logits, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    shifted = np.where(mask, logits, -np.inf)
    rowmax = np.max(shifted, axis=-1, keepdims=True)
    # a shift of 0 where nothing is allowed (or a logit is infinite) keeps
    # inf - inf out; masked-out entries are exp(-inf) = 0
    rowmax[~np.isfinite(rowmax)] = 0.0
    e = np.exp(shifted - rowmax)
    total = e.sum(axis=-1, keepdims=True)
    return np.divide(e, total, out=np.zeros_like(e), where=total > 0)


def _plogp(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0, p * np.log(p), 0.0)


def _entropy_rows(p: np.ndarray) -> np.ndarray:
    return -_plogp(p).sum(axis=-1)


@dataclass
class SequenceData:
    """Replay record for one sampled sequence: its token indices and the
    constraint set it was sampled under, which together fix every step's
    mask and input."""

    indices: np.ndarray
    cs: ConstraintSet

    @property
    def length(self) -> int:
        return int(self.indices.size)


@dataclass
class SampledBatch:
    """Sampled sequences with their replay records.

    `forward`, when set, is the sampling pass's own per-step activations
    in exactly the layout `teacher_forward` would replay them in (one
    sampling round that finished every row), as `teacher_forward`'s
    result.  It holds only for the parameters the batch was sampled
    with, so no update reads it from the batch: `train` takes it off
    and hands it to the update it was made for.
    """

    sequences: list[ExpressionTree]
    log_probs: np.ndarray
    entropies: np.ndarray
    data: list[SequenceData]
    rewards: np.ndarray | None = field(default=None)
    forward: tuple | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return len(self.sequences)


def sample_batch(policy: PolicyNetwork, n: int, cs: ConstraintSet,
                 rng: np.random.Generator) -> SampledBatch:
    """Sample n complete constraint-clean sequences (rewards unset).

    Prefixes whose mask empties out are dropped and resampled; if the
    grammar keeps dead-ending past a retry cap, that is a hard error.
    """
    if n < 1:
        raise ValueError("need at least one sequence")
    sequences: list[ExpressionTree] = []
    log_probs: list[float] = []
    entropies: list[float] = []
    data: list[SequenceData] = []
    dropped = 0
    while len(sequences) < n:
        want = n - len(sequences)
        if dropped > _RESAMPLE_CAP * n:
            raise TrainingError(
                f"sampling dead-ended {dropped} times for {n} sequences")
        out = _sample_round(policy, want, cs, rng)
        for seq, lp, ent, rec in out["finished"]:
            sequences.append(seq)
            log_probs.append(lp)
            entropies.append(ent)
            data.append(rec)
        dropped += out["dropped"]
    # with nothing dropped, the one round ran is the batch, row for row;
    # otherwise a replay's matrices have other row counts, which BLAS
    # may round differently
    return SampledBatch(sequences, np.asarray(log_probs),
                        np.asarray(entropies), data,
                        forward=out["forward"] if dropped == 0 else None)


def _unroll(policy: PolicyNetwork, m: int, cs: ConstraintSet, pick):
    """Run the cell over m empty prefixes under the grammar masks.  At
    step t, pick(t, probs) names a token for every row; rows that admit
    one (neither complete nor dead-ended) take it.  Returns the prefixes
    and `teacher_forward`'s result for them."""
    state = PrefixBatch(policy.vocab, m, cs.max_length)
    h = np.zeros((m, policy.hidden_size))
    logp = np.zeros(m)
    ent_sum = np.zeros(m)
    steps = []
    while True:
        # complete rows, and open rows that have dead-ended, admit nothing
        masks = state.mask(cs)
        active = masks.any(axis=1)
        if not active.any():
            break
        x = policy.encode_step_inputs(*state.context(), on=active)
        h_new, logits, (z, r, rh, c) = policy.step(x, h)
        probs = masked_softmax(logits, masks)
        choice = pick(len(steps), probs)
        rows = np.flatnonzero(active)
        a = choice[rows]
        logp[rows] += np.log(probs[rows, a])
        ent_sum[rows] += _entropy_rows(probs[rows])
        state.push(rows, a)
        steps.append({"x": x, "h_prev": h, "z": z, "r": r, "rh": rh,
                      "c": c, "p": probs, "valid": active,
                      "a": np.where(active, choice, 0)})
        h = np.where(active[:, None], h_new, h)
    # a row that dead-ends at its root has no tokens
    ents = ent_sum / np.maximum(state.length, 1)
    return state, (logp, ents, {"steps": steps, "lengths": state.length})


def _sample_round(policy: PolicyNetwork, m: int, cs: ConstraintSet,
                  rng: np.random.Generator):
    def draw(t, probs):
        cum = np.cumsum(probs, axis=1)
        return ((rng.random(m) * cum[:, -1])[:, None] >= cum).sum(axis=1)

    state, forward = _unroll(policy, m, cs, draw)
    logp, ents, _ = forward
    done = state.slots == 0
    finished = []
    tokens, lengths = state.tok.tolist(), state.length.tolist()
    logp_list, ents_list = logp.tolist(), ents.tolist()
    for i in np.flatnonzero(done).tolist():
        t = lengths[i]
        tree = ExpressionTree(tuple(map(policy.vocab.tokens.__getitem__,
                                        tokens[i][:t])))
        finished.append((tree, logp_list[i], ents_list[i],
                         SequenceData(state.tok[i, :t], cs)))
    return {"finished": finished, "dropped": int((~done).sum()),
            "forward": forward}


# ---------------------------------------------------------------------------
# teacher-forced replay and gradients


def teacher_forward(policy: PolicyNetwork, data: list[SequenceData]):
    """Replay recorded sequences under current parameters.

    Returns per-sequence log probs, mean step entropies, and the cache
    of per-step activations that `surrogate_loss` runs back through.
    """
    n = len(data)
    if n == 0:
        raise ValueError("empty sequence batch")
    cs = data[0].cs
    if any(d.cs != cs for d in data):
        raise ValueError("sequences sampled under different constraint sets")
    tok = np.zeros((n, max(d.length for d in data)), dtype=np.intp)
    for i, d in enumerate(data):
        tok[i, :d.length] = d.indices
    return _unroll(policy, n, cs, lambda t, probs: tok[:, t])[1]


def surrogate_loss(policy: PolicyNetwork, data: list[SequenceData],
                   weights: np.ndarray, entropy_weight: float,
                   forward: tuple | None = None):
    """Loss -sum_i w_i log p(tau_i) - beta * mean_i entropy_i and its
    parameter gradients under the grammar masks.

    `forward` is `teacher_forward(policy, data)` when the caller already
    has it (a batch's `forward`, under the parameters it was sampled
    with); otherwise the sequences are replayed.  The gradient is one
    reverse pass over the recorded steps, each step's logit gradient run
    back through the cell as it is formed."""
    weights = np.asarray(weights, dtype=float)
    n = len(data)
    if forward is None:
        forward = teacher_forward(policy, data)
    logp, ents, cache = forward
    if logp.size != n:
        raise ValueError("forward pass does not match the sequences")
    loss = -float(weights @ logp) - entropy_weight * float(ents.mean())
    p = policy.params
    wo_t, uc_t, uz_t, ur_t = p["wo"].T, p["uc"].T, p["uz"].T, p["ur"].T
    grads = {name: np.zeros_like(a) for name, a in p.items()}
    rows = np.arange(n)
    w = weights[:, None]
    beta = (entropy_weight / (n * cache["lengths"]))[:, None]
    dh_next = np.zeros((n, policy.hidden_size))
    for st in reversed(cache["steps"]):
        # the step's logit gradient, zero on rows that had finished
        probs = st["p"]
        onehot = np.zeros_like(probs)
        onehot[rows, st["a"]] = 1.0
        dl = w * (probs - onehot)
        if entropy_weight != 0.0:
            plogp = _plogp(probs)
            h_t = -plogp.sum(axis=1, keepdims=True)
            dl = dl + beta * (plogp + probs * h_t)
        vt = st["valid"][:, None].astype(float)
        dl = dl * vt
        z, r, rh, c, h_prev, x = (st["z"], st["r"], st["rh"], st["c"],
                                  st["h_prev"], st["x"])
        keep = 1.0 - z
        h_new = keep * h_prev + z * c
        grads["wo"] += h_new.T @ dl
        grads["bo"] += dl.sum(axis=0)
        dh = dh_next + dl @ wo_t
        # masked pre-activation gradients keep rows that had already
        # finished by step t from touching the parameters
        dz_pre = dh * (c - h_prev) * z * keep * vt
        dc_pre = dh * z * (1.0 - c * c) * vt
        drh = dc_pre @ uc_t
        dr_pre = drh * h_prev * r * (1.0 - r)
        dh_prev = dh * keep + drh * r + dz_pre @ uz_t + dr_pre @ ur_t
        for nm, dpre in (("z", dz_pre), ("r", dr_pre), ("c", dc_pre)):
            grads["w" + nm] += x.T @ dpre
            grads["b" + nm] += dpre.sum(axis=0)
        grads["uz"] += h_prev.T @ dz_pre
        grads["ur"] += h_prev.T @ dr_pre
        grads["uc"] += rh.T @ dc_pre
        # finished rows carry their gradient through the frozen state
        dh_next = np.where(st["valid"][:, None], dh_prev, dh)
    return loss, grads
