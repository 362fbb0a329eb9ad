"""Reward, priority queue, the three policy updates, and the train loop."""

import copy
import dataclasses
import importlib
import multiprocessing

import numpy as np
import pytest

from autopl.errors import DataError
from autopl.expr.constfit import optimize_constants
from autopl.expr.constraints import ConstraintSet, RepeatRule
from autopl.expr.tokens import Token, Vocabulary
from autopl.expr.tree import ExpressionTree, evaluate
from autopl.plmodels import Dataset
from autopl.dsr.optim import Adam
from autopl.dsr.policy import PolicyNetwork, SampledBatch, sample_batch
from autopl.dsr.reward import reward, reward_from_mse
from autopl.dsr.train import (
    MaxRewardPriorityQueue,
    TrainerConfig,
    pqt_step,
    rspg_step,
    train,
    vpg_step,
)


def _dataset(n=120, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(1.0, 10.0, size=(n, 2))
    return Dataset(feature_names=("x0", "x1"), X=X, y=X[:, 0] + X[:, 1],
                   provenance="test")


def _sum_tree():
    return ExpressionTree((Token.binary("add"), Token.variable("x0", 0),
                           Token.variable("x1", 1)))


def test_reward_values_and_zeroing():
    ds = _dataset()
    cs = ConstraintSet()
    assert reward(_sum_tree(), ds, cs) == 1.0
    # mean predictor: NRMSE 1 so reward 1/2
    mean_tree = ExpressionTree((Token.literal(float(ds.y.mean())),))
    assert reward(mean_tree, ds, cs) == pytest.approx(0.5, abs=1e-12)
    # log of a negative input is non-finite everywhere
    bad = ExpressionTree((Token.unary("log10"), Token.literal(-1.0)))
    assert reward(bad, ds, cs) == 0.0


def test_reward_applies_repeat_discount():
    ds = _dataset()
    cs = ConstraintSet(repeat_rules={"x0": RepeatRule(min_count=2)})
    assert reward(_sum_tree(), ds, cs) == pytest.approx(0.5)


def _fit_case(kind):
    # (tree, data, constraints) for one kind of constant fit
    rng = np.random.default_rng(3)
    add, mul, c = Token.binary("add"), Token.binary("mul"), Token.const()
    x0, x1 = Token.variable("x0", 0), Token.variable("x1", 1)
    line = ExpressionTree((add, mul, c, x0, c))
    X = rng.uniform(1.0, 10.0, size=(60, 2))
    y = 3.5 * X[:, 0] - 2.0 + rng.normal(0.0, 0.1, 60)
    if kind == "fittable":
        return line, X, y, ConstraintSet()
    if kind == "min-count":
        # x1 is wanted twice and appears never: a discount of 0.5 ** 2
        rules = {"x1": RepeatRule(min_count=2), "x0": RepeatRule(min_count=1)}
        return line, X, y, ConstraintSet(repeat_rules=rules)
    if kind == "non-finite":
        # log10(x1 - x1) is -inf on every row, whatever c is
        tree = ExpressionTree((add, c, Token.unary("log10"),
                               Token.binary("sub"), x1, x1))
        return tree, X, y, ConstraintSet()
    # c + exp(x0) is finite on every row, but its squared errors sum past
    # the largest double for any c a fit reaches
    X[:, 0] = rng.uniform(353.5, 354.5, 60)
    tree = ExpressionTree((add, c, Token.unary("exp"), x0))
    return tree, X, y, ConstraintSet()


@pytest.mark.parametrize("kind", ["fittable", "min-count", "non-finite",
                                  "sum-overflow"])
def test_reward_from_fit_is_reward_of_fitted_tree_bit_for_bit(kind):
    tree, X, y, cs = _fit_case(kind)
    ds = Dataset(feature_names=("x0", "x1"), X=X, y=y, provenance="test")
    fit = optimize_constants(tree, X, y)
    with np.errstate(all="ignore"):
        finite = np.isfinite(evaluate(fit.tree, X)).all()
    assert (fit.fittable, finite) == {
        "fittable": (True, True), "min-count": (True, True),
        "non-finite": (False, False), "sum-overflow": (False, True)}[kind]
    got = reward_from_mse(fit.mse, float(np.std(y)), fit.tree.tokens, cs)
    want = reward(fit.tree, ds, cs)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert (got > 0.0) == fit.fittable


def test_queue_keeps_topk_unique():
    q = MaxRewardPriorityQueue(3)
    data = None
    for i, r in enumerate([0.2, 0.9, 0.5, 0.7, 0.9]):
        q.add(r, ("k", i), data)
    assert len(q) == 3
    rewards = [e.reward for e in q.items()]
    assert rewards == [0.9, 0.9, 0.7]
    # duplicate key is ignored even with a better reward
    assert not q.add(0.95, ("k", 1), data)
    assert q.max_reward == 0.9


def test_queue_min_reward_never_decreases():
    rng = np.random.default_rng(1)
    q = MaxRewardPriorityQueue(5)
    prev = float("-inf")
    for i in range(200):
        q.add(float(rng.random()), ("k", i), None)
        if len(q) == 5:
            assert q.min_reward >= prev
            prev = q.min_reward


def test_rspg_below_quantile_sequences_contribute_nothing():
    # two batches sharing the top sequence but with different low-reward
    # sequences must produce identical updates when entropy is off
    vocab = Vocabulary.default(["x0", "x1"])
    cs = ConstraintSet()
    base = sample_batch(PolicyNetwork(vocab, seed=0), 20, cs,
                        np.random.default_rng(1))
    alt = sample_batch(PolicyNetwork(vocab, seed=0), 20, cs,
                       np.random.default_rng(99))
    rewards = np.linspace(0.1, 0.8, 20)
    rewards[7] = 1.0
    batch_a = SampledBatch(base.sequences, base.log_probs, base.entropies,
                           base.data, rewards.copy())
    mixed_seqs = list(alt.sequences)
    mixed_data = list(alt.data)
    mixed_seqs[7] = base.sequences[7]
    mixed_data[7] = base.data[7]
    batch_b = SampledBatch(mixed_seqs, alt.log_probs, alt.entropies,
                           mixed_data, rewards.copy())

    pol_a = PolicyNetwork(vocab, seed=5)
    pol_b = PolicyNetwork(vocab, seed=5)
    stats_a = rspg_step(pol_a, batch_a, 0.05, 0.0, Adam(0.01))
    stats_b = rspg_step(pol_b, batch_b, 0.05, 0.0, Adam(0.01))
    assert stats_a["n_above"] == stats_b["n_above"] == 1
    for name in pol_a.PARAM_NAMES:
        assert np.array_equal(pol_a.params[name], pol_b.params[name])


def test_rspg_quantile_example_and_equal_rewards():
    vocab = Vocabulary.default(["x0", "x1"])
    batch = sample_batch(PolicyNetwork(vocab, seed=0), 10, ConstraintSet(),
                         np.random.default_rng(2))
    batch.rewards = np.round(np.linspace(0.1, 1.0, 10), 10)
    pol = PolicyNetwork(vocab, seed=3)
    stats = rspg_step(pol, batch, 0.1, 0.0, Adam(0.01))
    assert stats["n_above"] == 1
    assert not stats["no_survivors"]

    # equal rewards: nothing clears the strict quantile, and with zero
    # entropy weight the parameters stay exactly put
    batch.rewards = np.full(10, 0.4)
    before = {n: p.copy() for n, p in pol.params.items()}
    stats = rspg_step(pol, batch, 0.1, 0.0, Adam(0.01))
    assert stats["no_survivors"]
    for name, p in pol.params.items():
        assert np.array_equal(p, before[name])


def test_vpg_baseline_initialization_and_update():
    vocab = Vocabulary.default(["x0", "x1"])
    batch = sample_batch(PolicyNetwork(vocab, seed=1), 8, ConstraintSet(),
                         np.random.default_rng(3))
    batch.rewards = np.full(8, 0.9)
    pol = PolicyNetwork(vocab, seed=2)

    # first batch: baseline comes out as the batch mean
    stats, b1 = vpg_step(pol, batch, None, 0.25, 0.0, Adam(0.01))
    assert stats["baseline"] == pytest.approx(0.9)
    assert b1 == pytest.approx(0.9)

    # spec arithmetic: alpha 0.25, b 0.5, mean 0.9 -> 0.6
    _, b2 = vpg_step(pol, batch, 0.5, 0.25, 0.0, Adam(0.01))
    assert b2 == pytest.approx(0.6)

    # all rewards equal to the baseline: zero gradient, parameters frozen
    before = {n: p.copy() for n, p in pol.params.items()}
    vpg_step(pol, batch, 0.9, 0.25, 0.0, Adam(0.01))
    for name, p in pol.params.items():
        assert np.array_equal(p, before[name])


def _params_bytes(policy):
    return [policy.params[n].tobytes() for n in policy.PARAM_NAMES]


@pytest.mark.parametrize("update", ["rspg", "vpg"])
def test_updates_replay_unless_handed_the_sampling_pass(update):
    # an update reads a batch's sampling pass only when handed it: on a
    # batch sampled by another policy, or called again after the first
    # update moved the parameters, it replays
    vocab = Vocabulary.default(["x0", "x1"])
    sampler = PolicyNetwork(vocab, seed=0)
    batch = sample_batch(sampler, 30, ConstraintSet(),
                         np.random.default_rng(1))
    batch.rewards = np.linspace(0.0, 1.0, 30)
    assert batch.forward is not None
    replayed = dataclasses.replace(batch, forward=None)

    def step(policy, b, opt, **kw):
        if update == "rspg":
            rspg_step(policy, b, 0.2, 0.01, opt, **kw)
        else:
            vpg_step(policy, b, 0.5, 0.25, 0.01, opt, **kw)

    other, other_replayed = (PolicyNetwork(vocab, seed=5) for _ in range(2))
    opts = Adam(0.01), Adam(0.01)
    for _ in range(2):
        step(other, batch, opts[0])
        step(other_replayed, replayed, opts[1])
    assert _params_bytes(other) == _params_bytes(other_replayed)

    own, own_replayed = copy.deepcopy(sampler), copy.deepcopy(sampler)
    opts = Adam(0.01), Adam(0.01)
    step(own, batch, opts[0], forward=batch.forward)
    step(own, batch, opts[0])
    for _ in range(2):
        step(own_replayed, replayed, opts[1])
    assert _params_bytes(own) == _params_bytes(own_replayed)


def test_pqt_step_absorbs_and_trains_on_queue():
    vocab = Vocabulary.default(["x0", "x1"])
    pol = PolicyNetwork(vocab, seed=4)
    batch = sample_batch(pol, 50, ConstraintSet(), np.random.default_rng(5))
    batch.rewards = np.random.default_rng(6).random(50)
    q = MaxRewardPriorityQueue(10)
    before = pol.get_params()
    stats = pqt_step(pol, batch, q, 0.005, Adam(0.01))
    assert len(q) == 10
    top10 = sorted(batch.rewards, reverse=True)[:10]
    assert stats["queue_max"] == pytest.approx(max(top10))
    assert stats["queue_min"] == pytest.approx(min(top10))
    assert not np.array_equal(pol.get_params(), before)


def test_train_budget_accounting_and_history():
    ds = _dataset()
    cs = ConstraintSet(min_length=3)
    cfg = TrainerConfig(policy_kind="rspg", batch_size=50, sample_budget=150,
                        reward_threshold=2.0, seed=1)
    res = train(cfg, ds, cs)
    assert res.samples_used == 150
    assert len(res.history) == 3
    best = [row["best_reward"] for row in res.history]
    assert best == sorted(best)
    assert all(row["samples"] == 50 * (i + 1) for i, row in enumerate(res.history))
    assert all("best_expression_infix" in row for row in res.history)


def test_train_early_stops_on_threshold():
    ds = _dataset()
    cs = ConstraintSet(min_length=3)
    cfg = TrainerConfig(policy_kind="pqt", batch_size=200, sample_budget=10000,
                        seed=0)
    res = train(cfg, ds, cs)
    assert res.best_reward >= 0.999
    assert res.samples_used < 10000
    assert res.history[-1]["best_reward"] >= 0.999


def test_train_deterministic_and_thread_invariant():
    ds = _dataset()
    cs = ConstraintSet(min_length=3)
    cfg = TrainerConfig(policy_kind="vpg", batch_size=40, sample_budget=120,
                        reward_threshold=2.0, seed=3)
    a = train(cfg, ds, cs)
    b = train(cfg, ds, cs)
    assert a.best_reward == b.best_reward
    assert [r["mean_reward"] for r in a.history] == \
        [r["mean_reward"] for r in b.history]


@pytest.mark.parametrize("kind", ["rspg", "vpg", "pqt"])
def test_train_with_sampling_passes_matches_replaying_every_update(
        kind, monkeypatch):
    # compared within one process: BLAS may round differently elsewhere
    train_module = importlib.import_module("autopl.dsr.train")
    sample = train_module.sample_batch
    handed = []

    def spy(*args, **kwargs):
        batch = sample(*args, **kwargs)
        handed.append(batch.forward is not None)
        return batch

    def without_pass(*args, **kwargs):
        batch = sample(*args, **kwargs)
        batch.forward = None
        return batch

    ds = _dataset()
    cs = ConstraintSet(min_length=3)
    cfg = TrainerConfig(policy_kind=kind, batch_size=40, sample_budget=200,
                        reward_threshold=2.0, seed=4)
    monkeypatch.setattr(train_module, "sample_batch", spy)
    got = train(cfg, ds, cs)
    monkeypatch.setattr(train_module, "sample_batch", without_pass)
    want = train(cfg, ds, cs)
    assert len(handed) == 5 and all(handed)
    assert got.history == want.history
    assert (got.best_tree, got.best_reward) == \
        (want.best_tree, want.best_reward)


def _train_fit_case(kind):
    ds = _dataset()
    cs = ConstraintSet(min_length=3)
    cfg = TrainerConfig(policy_kind=kind, batch_size=40, sample_budget=160,
                        reward_threshold=2.0, seed=5)
    return cfg, ds, cs


@pytest.mark.parametrize("kind", ["rspg", "vpg", "pqt"])
def test_train_in_workers_matches_in_process(kind, forced_pool, in_process):
    # the fits run in-process when the pool cannot start, and when only
    # one CPU is available, where no pool is tried
    cfg, ds, cs = _train_fit_case(kind)
    started = forced_pool
    pooled = train(cfg, ds, cs)
    assert started == [2]
    in_process("no-pool")
    no_pool = train(cfg, ds, cs)
    in_process("one-cpu")
    one_cpu = train(cfg, ds, cs)
    for alone in (no_pool, one_cpu):
        assert pooled.history == alone.history
        assert (pooled.best_tree, pooled.best_reward) == \
            (alone.best_tree, alone.best_reward)


def test_no_worker_outlives_train(monkeypatch, forced_pool):
    train_module = importlib.import_module("autopl.dsr.train")
    cfg, ds, cs = _train_fit_case("rspg")
    started = forced_pool
    train(cfg, ds, cs)
    assert multiprocessing.active_children() == []

    def broken(*args, **kwargs):
        raise ValueError("fit failed")

    # the workers are forked after this, so they inherit it
    monkeypatch.setattr(train_module, "optimize_constants", broken)
    with pytest.raises(ValueError, match="fit failed"):
        train(cfg, ds, cs)
    assert started == [2, 2]
    assert multiprocessing.active_children() == []


def test_train_rejects_constant_target():
    X = np.random.default_rng(0).uniform(1, 2, (30, 2))
    ds = Dataset(feature_names=("x0", "x1"), X=X, y=np.ones(30),
                 provenance="test")
    with pytest.raises(DataError):
        train(TrainerConfig(batch_size=10, sample_budget=10), ds,
              ConstraintSet())


def test_trainer_config_validation():
    with pytest.raises(ValueError):
        TrainerConfig(policy_kind="nope")
    with pytest.raises(ValueError):
        TrainerConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        TrainerConfig(ewma_alpha=1.5)
    with pytest.raises(ValueError):
        TrainerConfig(queue_k=0)
    with pytest.raises(ValueError):
        TrainerConfig(sample_budget=10, batch_size=20)
    with pytest.raises(ValueError):
        TrainerConfig(learning_rate=0.0)
