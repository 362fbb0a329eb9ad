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
        # NaN fails these too
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not abs(self.entropy_weight) < np.inf:
            raise ValueError("entropy_weight must be finite")


def top_k(entries: list[tuple], k: int) -> list[tuple]:
    """The k entries of highest reward (each entry's first item), earlier
    entries first among equal rewards."""
    return sorted(entries, key=lambda e: -e[0])[:k]


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
             records: list[SequenceData], capacity: int,
             entropy_weight: float, opt: Adam,
             forward: tuple | None = None) -> dict:
    """Priority-queue update: maximize the likelihood of the queued
    records, each weighted 1 / capacity, with the entropy bonus taken
    over the freshly sampled batch.  The records, sampled under older
    parameters, are always replayed; `forward` (as for `rspg_step`)
    serves the entropy term."""
    w = np.full(len(records), 1.0 / capacity)
    loss_q, grads = surrogate_loss(policy, records, w, 0.0)
    if entropy_weight != 0.0:
        loss_e, grads_e = surrogate_loss(policy, batch.data,
                                         np.zeros(batch.n), entropy_weight,
                                         forward)
        for name in grads:
            grads[name] += grads_e[name]
        loss_q += loss_e
    opt.step(policy.params, grads)
    return {"loss": loss_q}


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


Scored = tuple[float, ExpressionTree, SequenceData]


def _score_batch(batch: SampledBatch, ds: Dataset, cs: ConstraintSet,
                 cache: dict[tuple, float], fit_all: FitMap) -> list[Scored]:
    """Fill batch.rewards, fitting constants once per unique structure
    through `fit_all`, and return (reward, fitted tree, first sampled
    record) for each structure the cache did not hold, in the order the
    batch first sampled them.  A fitted structure's reward comes from its
    fit's MSE (infinite when unfittable), which `reward` would compute
    again from the data."""
    sigma = ds.y_std
    keys = [seq.key() for seq in batch.sequences]
    first: dict[tuple, int] = {}
    for i, key in enumerate(keys):
        if key not in cache:
            first.setdefault(key, i)
    trees = [batch.sequences[i] for i in first.values()]
    fits = fit_all([tree for tree in trees if tree.n_constants])
    # the constant-free structures are scored while the workers fit
    plain = [None if tree.n_constants else reward(tree, ds, cs)
             for tree in trees]
    scored = []
    for (key, i), tree, r in zip(first.items(), trees, plain):
        if r is None:
            mse, constants = next(fits)
            tree = tree.with_constants(constants)
            r = reward_from_mse(mse, sigma, tree.tokens, cs)
        cache[key] = r
        scored.append((r, tree, batch.data[i]))
    batch.rewards = np.array([cache[key] for key in keys], dtype=float)
    return scored


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
    queue: list[Scored] = []
    baseline: float | None = None
    cache: dict[tuple, float] = {}

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
            first = _score_batch(batch, train_ds, cs, cache, fit_all)
            samples_used += batch.n
            step += 1
            # a structure scored in an earlier batch cannot beat the best
            for r, tree, _ in first:
                if r > best_reward:
                    best_reward, best_tree = r, tree
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
                queue = top_k(queue + first, config.queue_k)
                stats = pqt_step(policy, batch, [e[2] for e in queue],
                                 config.queue_k, config.entropy_weight, opt,
                                 forward=forward)
            # released before the next batch is sampled
            forward = None
            row.update(stats)
            history.append(row)
    return DsrResult(best_tree, best_reward, history, samples_used)
