"""Policy-gradient training loops for expression discovery.

Three trainers share one sampled-batch pipeline: a risk-seeking step
that only rewards the top quantile, a vanilla REINFORCE step with an
EWMA baseline, and a priority-queue step that maximizes the likelihood
of the best sequences seen so far.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from autopl import workers
from autopl.errors import DataError
from autopl.expr.constfit import optimize_constants
from autopl.expr.constraints import ConstraintSet
from autopl.expr.tokens import Vocabulary
from autopl.expr.tree import ExpressionTree, to_infix
from autopl.plmodels import Dataset
from autopl.dsr.optim import Adam
from autopl.dsr.policy import (
    PolicyNetwork,
    SampledBatch,
    SequenceData,
    sample_batch,
    surrogate_loss,
)
from autopl.dsr.reward import reward, reward_from_mse

POLICY_KINDS = ("rspg", "vpg", "pqt")


@dataclass(frozen=True)
class TrainerConfig:
    policy_kind: str = "rspg"
    batch_size: int = 200
    learning_rate: float = 0.002
    entropy_weight: float = 0.008
    epsilon: float = 0.05
    ewma_alpha: float = 0.25
    queue_k: int = 10
    sample_budget: int = 10000
    reward_threshold: float = 0.999
    seed: int = 0

    def __post_init__(self):
        if self.policy_kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.policy_kind!r}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.queue_k < 1:
            raise ValueError("queue_k must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.sample_budget < self.batch_size:
            raise ValueError("sample_budget must cover one batch")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class _QueueEntry:
    reward: float
    order: int
    key: tuple
    data: SequenceData


class MaxRewardPriorityQueue:
    """Top-k sequences by reward, deduplicated by token structure."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = int(capacity)
        self._entries: list[_QueueEntry] = []
        self._keys: set[tuple] = set()
        self._counter = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def min_reward(self) -> float:
        return min(e.reward for e in self._entries) if self._entries else float("-inf")

    @property
    def max_reward(self) -> float:
        return max(e.reward for e in self._entries) if self._entries else float("-inf")

    def add(self, r: float, key: tuple, data: SequenceData) -> bool:
        """Insert unless a duplicate or below the full queue's minimum."""
        if key in self._keys:
            return False
        if len(self._entries) >= self.capacity:
            worst = min(self._entries, key=lambda e: (e.reward, -e.order))
            if r <= worst.reward:
                return False
            self._entries.remove(worst)
            self._keys.discard(worst.key)
        self._entries.append(_QueueEntry(float(r), self._counter, key, data))
        self._keys.add(key)
        self._counter += 1
        return True

    def absorb(self, batch: SampledBatch) -> int:
        """Feed a rewarded batch through the queue; returns insert count."""
        if batch.rewards is None:
            raise ValueError("batch rewards are unset")
        n_in = 0
        for seq, r, data in zip(batch.sequences, batch.rewards, batch.data):
            n_in += self.add(float(r), seq.key(), data)
        return n_in

    def items(self) -> list[_QueueEntry]:
        return sorted(self._entries, key=lambda e: (-e.reward, e.order))


def rspg_step(policy: PolicyNetwork, batch: SampledBatch, epsilon: float,
              entropy_weight: float, opt: Adam,
              forward: tuple | None = None) -> dict:
    """Risk-seeking update: only rewards strictly above the empirical
    (1 - epsilon) quantile contribute, weighted by their margin.

    `forward` is the batch's own sampling pass, valid only while the
    parameters are the ones it was sampled with; without it the batch
    is replayed."""
    if batch.rewards is None:
        raise ValueError("batch rewards are unset")
    r = np.asarray(batch.rewards, dtype=float)
    n = r.size
    quantile = float(np.quantile(r, 1.0 - epsilon))
    above = r > quantile
    weights = np.where(above, (r - quantile) / (epsilon * n), 0.0)
    loss, grads = surrogate_loss(policy, batch.data, weights, entropy_weight,
                                 forward)
    opt.step(policy.params, grads)
    return {"loss": loss, "quantile": quantile, "n_above": int(above.sum()),
            "no_survivors": not bool(above.any())}


def vpg_step(policy: PolicyNetwork, batch: SampledBatch, baseline: float | None,
             ewma_alpha: float, entropy_weight: float, opt: Adam,
             forward: tuple | None = None) -> tuple[dict, float]:
    """REINFORCE update against an EWMA baseline; returns the new baseline.
    `forward` is as for `rspg_step`."""
    if batch.rewards is None:
        raise ValueError("batch rewards are unset")
    r = np.asarray(batch.rewards, dtype=float)
    mean_r = float(r.mean())
    b = mean_r if baseline is None else float(baseline)
    weights = (r - b) / r.size
    loss, grads = surrogate_loss(policy, batch.data, weights, entropy_weight,
                                 forward)
    opt.step(policy.params, grads)
    new_b = ewma_alpha * mean_r + (1.0 - ewma_alpha) * b
    return {"loss": loss, "baseline": b}, new_b


def pqt_step(policy: PolicyNetwork, batch: SampledBatch,
             queue: MaxRewardPriorityQueue, entropy_weight: float,
             opt: Adam, forward: tuple | None = None) -> dict:
    """Priority-queue update: maximize likelihood of the stored top-k,
    with the entropy bonus taken over the freshly sampled batch.  The
    queue, sampled under older parameters, is always replayed; `forward`
    (as for `rspg_step`) serves the entropy term."""
    queue.absorb(batch)
    items = queue.items()
    qdata = [e.data for e in items]
    w = np.full(len(qdata), 1.0 / queue.capacity)
    loss_q, grads = surrogate_loss(policy, qdata, w, 0.0)
    if entropy_weight != 0.0:
        loss_e, grads_e = surrogate_loss(policy, batch.data,
                                         np.zeros(batch.n), entropy_weight,
                                         forward)
        for name in grads:
            grads[name] += grads_e[name]
        loss_q += loss_e
    opt.step(policy.params, grads)
    return {"loss": loss_q, "queue_min": queue.min_reward,
            "queue_max": queue.max_reward}


@dataclass
class DsrResult:
    best_tree: ExpressionTree | None
    best_reward: float
    history: list[dict] = field(default_factory=list)
    samples_used: int = 0


def _fit_tree(X: np.ndarray, y: np.ndarray,
              tree: ExpressionTree) -> tuple[float, tuple[float, ...]]:
    """One structure's constant fit, as its MSE and fitted constants."""
    fit = optimize_constants(tree, X, y)
    return fit.mse, fit.tree.constants


FitMap = Callable[[Iterable[ExpressionTree]],
                  Iterator[tuple[float, tuple[float, ...]]]]


def _score_batch(batch: SampledBatch, ds: Dataset, cs: ConstraintSet,
                 cache: dict, fit_all: FitMap) -> list[ExpressionTree]:
    """Fill batch.rewards, fitting constants once per unique structure
    through `fit_all`.  A fitted structure's reward comes from its fit's
    MSE (infinite when unfittable), which `reward` would compute again
    from the data."""
    sigma = ds.y_std
    fitted: list[ExpressionTree | None] = [None] * batch.n
    todo: dict[tuple, list[int]] = {}
    rewards = np.zeros(batch.n)
    for i, seq in enumerate(batch.sequences):
        key = seq.key()
        if key in cache:
            rewards[i], fitted[i] = cache[key]
        else:
            todo.setdefault(key, []).append(i)
    trees = [batch.sequences[idxs[0]] for idxs in todo.values()]
    fits = fit_all([tree for tree in trees if tree.n_constants])
    # the constant-free structures are scored while the workers fit
    plain = [None if tree.n_constants else reward(tree, ds, cs)
             for tree in trees]
    for (key, idxs), tree, r in zip(todo.items(), trees, plain):
        if r is None:
            mse, constants = next(fits)
            tree = tree.with_constants(constants)
            r = reward_from_mse(mse, sigma, tree.tokens, cs)
        cache[key] = (r, tree)
        for i in idxs:
            rewards[i] = r
            fitted[i] = tree
    batch.rewards = rewards
    return fitted  # same order as batch.sequences


def _grammar(feature_names) -> Vocabulary:
    """The default vocabulary with one variable per feature; DataError
    naming a feature column that shares a token's name."""
    tokens = Vocabulary.default(()).index
    for name in feature_names:
        if name in tokens:
            raise DataError(f"feature column {name!r} has the name of a "
                            f"grammar token; rename the column")
    return Vocabulary.default(feature_names)


def train(config: TrainerConfig, train_ds: Dataset,
          cs: ConstraintSet) -> DsrResult:
    """Sample/score/update until the budget runs out or the reward
    threshold is reached, over the default vocabulary of the dataset's
    features; deterministic for a given config seed, and bit-identical
    whether the constant fits run in worker processes or in this one
    (see `workers.ordered_map`)."""
    if train_ds.y_std == 0.0:
        raise DataError("target is constant")
    vocab = _grammar(train_ds.feature_names)
    seeds = np.random.SeedSequence(config.seed).spawn(2)
    policy = PolicyNetwork(vocab, seed=seeds[0])
    rng = np.random.default_rng(seeds[1])
    opt = Adam(config.learning_rate)
    queue = MaxRewardPriorityQueue(config.queue_k)
    baseline: float | None = None
    cache: dict[tuple, tuple[float, ExpressionTree]] = {}

    best_tree: ExpressionTree | None = None
    best_reward = float("-inf")
    history: list[dict] = []
    samples_used = 0
    step = 0
    with workers.ordered_map(
            functools.partial(_fit_tree, train_ds.X, train_ds.y)) as fit_all:
        while samples_used < config.sample_budget:
            want = min(config.batch_size, config.sample_budget - samples_used)
            batch = sample_batch(policy, want, cs, rng)
            # the sampling pass serves this batch's update alone, which
            # changes the parameters it was made with
            forward, batch.forward = batch.forward, None
            fitted = _score_batch(batch, train_ds, cs, cache, fit_all)
            samples_used += batch.n
            step += 1
            i_best = int(np.argmax(batch.rewards))
            if float(batch.rewards[i_best]) > best_reward:
                best_reward = float(batch.rewards[i_best])
                best_tree = fitted[i_best]
            row = {"step": step, "samples": samples_used,
                   "best_reward": best_reward,
                   "mean_reward": float(np.mean(batch.rewards)),
                   "best_expression_infix": to_infix(best_tree)}
            if best_reward >= config.reward_threshold:
                history.append(row)
                break
            if config.policy_kind == "rspg":
                stats = rspg_step(policy, batch, config.epsilon,
                                  config.entropy_weight, opt, forward=forward)
            elif config.policy_kind == "vpg":
                stats, baseline = vpg_step(policy, batch, baseline,
                                           config.ewma_alpha,
                                           config.entropy_weight, opt,
                                           forward=forward)
            else:
                stats = pqt_step(policy, batch, queue, config.entropy_weight,
                                 opt, forward=forward)
            # released before the next batch is sampled
            forward = None
            row.update(stats)
            history.append(row)
    return DsrResult(best_tree, best_reward, history, samples_used)
