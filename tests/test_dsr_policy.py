"""Sequence policy: masked sampling, replay consistency, gradients."""

import importlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autopl.expr.constraints import (
    ConstraintSet,
    PrefixBatch,
    RepeatRule,
)
from autopl.expr.tokens import (
    BINARY_NAMES,
    INVERSE_UNARY,
    TRIG_NAMES,
    UNARY_NAMES,
    TokenKind,
    Vocabulary,
)
from autopl.dsr.policy import (
    PolicyNetwork,
    _entropy_rows,
    _sample_round,
    _sigmoid,
    masked_softmax,
    sample_batch,
    surrogate_loss,
    teacher_forward,
)
from prefix_row import PrefixRow


def _vocab():
    return Vocabulary.default(["x0", "x1"])


def _tiny_policy(seed=1):
    vocab = Vocabulary.default(["x0"], unary=("log10",), literals=[1],
                               include_const=False)
    return PolicyNetwork(vocab, hidden_size=4, seed=seed)


def test_masked_softmax_zeros_are_exact():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(6, 9)) * 3.0
    mask = rng.random((6, 9)) > 0.4
    mask[0] = False
    mask[1] = True
    p = masked_softmax(logits, mask)
    assert np.all(p[~mask] == 0.0)
    sums = p.sum(axis=1)
    assert np.all(p >= 0.0)
    assert sums[0] == 0.0
    assert np.allclose(sums[1:], 1.0, atol=1e-12)


def _masked_sigmoid(x):
    # reference: the stable logistic with one boolean-mask scatter per sign
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_masked_reference_bytes():
    rng = np.random.default_rng(5)
    edges = np.array([0.0, -0.0, 1e3, -1e3, 710.0, -710.0, 1e-300, -1e-300,
                      np.inf, -np.inf])
    cases = [edges] + [rng.normal(0.0, 10.0 ** rng.uniform(-3, 3),
                                  size=tuple(rng.integers(1, 40, size=2)))
                       for _ in range(1000)]
    with np.errstate(over="raise"):
        for x in cases:
            got = _sigmoid(x)
            assert got.dtype == x.dtype and got.shape == x.shape
            assert got.tobytes() == _masked_sigmoid(x).tobytes()
    # only a NaN's sign bit may differ
    assert np.isnan(_sigmoid(np.array([np.nan, 1.0]))[0])


def test_policy_param_vector_round_trip():
    pol = PolicyNetwork(_vocab(), hidden_size=6, seed=3)
    theta = pol.get_params()
    other = PolicyNetwork(_vocab(), hidden_size=6, seed=9)
    other.set_params(theta)
    for name in pol.PARAM_NAMES:
        assert np.array_equal(pol.params[name], other.params[name])
    with pytest.raises(ValueError):
        other.set_params(theta[:-1])


def test_sample_batch_lengths_and_window():
    pol = PolicyNetwork(_vocab(), seed=0)
    cs = ConstraintSet()
    batch = sample_batch(pol, 200, cs, np.random.default_rng(1))
    assert batch.n == 200
    lens = [len(s.tokens) for s in batch.sequences]
    assert min(lens) >= cs.min_length
    assert max(lens) <= cs.max_length
    assert np.all(batch.log_probs <= 0.0)
    assert np.all(batch.entropies >= 0.0)
    assert batch.rewards is None


def test_sample_batch_deterministic_per_seed():
    cs = ConstraintSet()
    a = sample_batch(PolicyNetwork(_vocab(), seed=4), 40, cs,
                     np.random.default_rng(7))
    b = sample_batch(PolicyNetwork(_vocab(), seed=4), 40, cs,
                     np.random.default_rng(7))
    c = sample_batch(PolicyNetwork(_vocab(), seed=4), 40, cs,
                     np.random.default_rng(8))
    assert [s.key() for s in a.sequences] == [s.key() for s in b.sequences]
    assert np.array_equal(a.log_probs, b.log_probs)
    assert [s.key() for s in a.sequences] != [s.key() for s in c.sequences]


def test_sampled_sequences_pass_independent_replay():
    # replay every sequence through a fresh mask check, token by token
    vocab = _vocab()
    pol = PolicyNetwork(vocab, seed=2)
    cs = ConstraintSet()
    batch = sample_batch(pol, 300, cs, np.random.default_rng(3))
    for seq in batch.sequences:
        state = PrefixRow(vocab)
        for tok in seq.tokens:
            mask = state.mask(cs)
            assert mask[vocab.index[tok.name]], seq.tokens
            state.push(tok)
        assert state.is_complete


def test_sampled_sequences_respect_composition_rules():
    vocab = _vocab()
    pol = PolicyNetwork(vocab, seed=5)
    cs = ConstraintSet()
    batch = sample_batch(pol, 300, cs, np.random.default_rng(6))
    for seq in batch.sequences:
        stack = []
        trig_depth = 0
        for tok in seq.tokens:
            if trig_depth > 0:
                assert tok.name not in TRIG_NAMES
            if stack and stack[-1][0].kind is TokenKind.UNARY:
                parent = stack[-1][0]
                assert not tok.is_constant_leaf
                assert INVERSE_UNARY.get(parent.name) != tok.name
            if tok.arity > 0:
                stack.append([tok, tok.arity, True])
                if tok.name in TRIG_NAMES:
                    trig_depth += 1
            else:
                const = tok.is_constant_leaf
                while stack:
                    stack[-1][1] -= 1
                    stack[-1][2] = stack[-1][2] and const
                    if stack[-1][1] > 0:
                        break
                    top, _, all_const = stack.pop()
                    assert not all_const, "operator with all-constant children"
                    if top.name in TRIG_NAMES:
                        trig_depth -= 1
                    const = False


def _hard_rule_breaks(tokens, cs):
    # every hard rule a complete prefix sequence breaks, read off the
    # tree it encodes
    breaks = []
    if not cs.min_length <= len(tokens) <= cs.max_length:
        breaks.append("length")
    counts = Counter(t.name for t in tokens)
    for name, rule in cs.repeat_rules.items():
        if rule.max_count is not None and counts[name] > rule.max_count:
            breaks.append(f"more than {rule.max_count} {name}")
    pos = 0

    def node(under_trig):
        nonlocal pos
        t = tokens[pos]
        pos += 1
        trig = t.name in TRIG_NAMES
        children = [node(under_trig or trig) for _ in range(t.arity)]
        if cs.forbid_nested_trig and trig and under_trig:
            breaks.append("nested trig")
        if (cs.forbid_all_constant_children and children
                and all(c.kind in (TokenKind.CONST, TokenKind.LITERAL)
                        for c in children)):
            breaks.append(f"all-constant operand of {t.name}")
        if (cs.forbid_inverse_unary_child and t.arity == 1
                and INVERSE_UNARY.get(t.name) == children[0].name):
            breaks.append(f"{children[0].name} under {t.name}")
        return t

    node(False)
    assert pos == len(tokens)
    return breaks


@st.composite
def _sampling_setups(draw, dead_ends=False):
    n_vars = draw(st.integers(1, 3))
    unary = draw(st.lists(st.sampled_from(UNARY_NAMES), unique=True))
    literals = draw(st.lists(st.integers(1, 10), unique=True, max_size=3))
    vocab = Vocabulary.default([f"x{i}" for i in range(n_vars)], unary=unary,
                               literals=literals,
                               include_const=draw(st.booleans()))
    # no prefix dead-ends: a window wider than one length always fits a
    # binary operator where a leaf would close the tree too early, and
    # only one operator is capped (with min = max and no unary, say,
    # every prefix can dead-end, and sampling rightly gives up)
    min_length = draw(st.integers(1, 8))
    max_length = draw(st.integers(min_length + 1, 24))
    capped = draw(st.sampled_from(BINARY_NAMES + tuple(unary)))
    rules = {capped: RepeatRule(max_count=draw(st.integers(1, 3)))}
    if dead_ends:
        # a narrow window and capped variables leave prefixes with no
        # admissible token
        max_length = draw(st.integers(min_length, min_length + 3))
        rules.update((f"x{i}", RepeatRule(max_count=draw(st.integers(1, 2))))
                     for i in range(n_vars))
    cs = ConstraintSet(min_length=min_length, max_length=max_length,
                       repeat_rules=rules)
    policy = PolicyNetwork(vocab, hidden_size=draw(st.integers(1, 8)),
                           seed=draw(st.integers(0, 2 ** 16)))
    return policy, cs, draw(st.integers(1, 12)), draw(st.integers(0, 2 ** 16))


@settings(max_examples=80, deadline=None, database=None)
@given(_sampling_setups())
def test_sampled_sequences_satisfy_every_hard_rule(setup):
    policy, cs, n, seed = setup
    batch = sample_batch(policy, n, cs, np.random.default_rng(seed))
    assert batch.n == n
    for seq in batch.sequences:
        assert _hard_rule_breaks(seq.tokens, cs) == [], seq.tokens


@settings(max_examples=80, deadline=None, database=None)
@given(_sampling_setups(dead_ends=True))
def test_batched_masks_equal_valid_next_tokens_row_by_row(setup):
    # rows advance by random admissible tokens until every row is complete
    # or dead-ended; dead rows stay in the batch, as in the sampler
    policy, cs, n, seed = setup
    vocab = policy.vocab
    rng = np.random.default_rng(seed)
    batch = PrefixBatch(vocab, n, cs.max_length)
    prefixes = [[] for _ in range(n)]
    while True:
        masks = batch.mask(cs)
        parent, sibling = batch.context()
        for i, prefix in enumerate(prefixes):
            state = PrefixRow(vocab)
            for tok in prefix:
                state.push(tok)
            assert [vocab[j] if j < len(vocab) else None
                    for j in (parent[i], sibling[i])] == \
                [state.parent, state.sibling]
            assert np.array_equal(masks[i], state.mask(cs))
        rows = np.flatnonzero(masks.any(axis=1))
        if rows.size == 0:
            break
        picks = np.array([rng.choice(np.flatnonzero(masks[i])) for i in rows])
        batch.push(rows, picks)
        for i, j in zip(rows, picks):
            prefixes[i].append(vocab[j])


def test_min_length_relaxation_allows_short_trees():
    pol = PolicyNetwork(_vocab(), seed=0)
    batch = sample_batch(pol, 150, ConstraintSet(min_length=1),
                         np.random.default_rng(2))
    lens = [len(s.tokens) for s in batch.sequences]
    assert min(lens) < 4


def test_teacher_replay_matches_sampled_log_probs():
    pol = PolicyNetwork(_vocab(), seed=11)
    batch = sample_batch(pol, 60, ConstraintSet(), np.random.default_rng(12))
    logp, ents, _ = teacher_forward(pol, batch.data)
    assert logp.tobytes() == batch.log_probs.tobytes()
    assert ents.tobytes() == batch.entropies.tobytes()


def _dead_end_setup():
    # one variable used at most once and 4-6 tokens: prefixes such as
    # (add x0 log10 .) have no admissible token, so rows are dropped and
    # resampled, here over two rounds, the second of one row
    vocab = Vocabulary.default(["x0"], unary=UNARY_NAMES,
                               literals=range(1, 30))
    cs = ConstraintSet(min_length=4, max_length=6,
                       repeat_rules={"x0": RepeatRule(max_count=1)})
    return PolicyNetwork(vocab, seed=8), cs, np.random.default_rng(8)


def _loss_bytes(loss, grads):
    return [np.float64(loss).tobytes()] + [grads[k].tobytes()
                                           for k in sorted(grads)]


@pytest.mark.parametrize("case", ["one round", "dropped rows"])
@pytest.mark.parametrize("entropy_weight", [0.0, 0.3])
def test_sampling_pass_gives_the_replays_loss_and_gradients(
        case, entropy_weight, monkeypatch):
    policy_module = importlib.import_module("autopl.dsr.policy")
    rounds = []

    def spy(*args):
        out = _sample_round(*args)
        rounds.append(out["dropped"])
        return out

    monkeypatch.setattr(policy_module, "_sample_round", spy)
    if case == "one round":
        pol, cs, rng = PolicyNetwork(_vocab(), seed=13), ConstraintSet(), \
            np.random.default_rng(14)
    else:
        pol, cs, rng = _dead_end_setup()
    batch = sample_batch(pol, 60, cs, rng)
    w = np.random.default_rng(15).normal(size=60)
    replayed = surrogate_loss(pol, batch.data, w, entropy_weight)
    if case == "one round":
        assert rounds == [0]
        logp, ents, cache = batch.forward
        want_logp, want_ents, want_cache = teacher_forward(pol, batch.data)
        assert logp.tobytes() == want_logp.tobytes()
        assert ents.tobytes() == want_ents.tobytes()
        assert cache["lengths"].tobytes() == want_cache["lengths"].tobytes()
        assert len(cache["steps"]) == len(want_cache["steps"])
        for got, want in zip(cache["steps"], want_cache["steps"]):
            for key in want:
                assert got[key].tobytes() == want[key].tobytes(), key
    else:
        # a replay's matrices have other row counts than the rounds had,
        # which BLAS may round differently (one-row products may take
        # another kernel), so such a batch keeps no sampling pass
        assert len(rounds) >= 2 and rounds[0] > 0
        assert batch.forward is None
    got = surrogate_loss(pol, batch.data, w, entropy_weight, batch.forward)
    assert _loss_bytes(*got) == _loss_bytes(*replayed)


def _step_input(policy, state):
    # parent/sibling one-hot pair for the next position of one prefix
    parent, sibling = (
        np.array([policy.vocab.index[t.name] if t else policy.n_tokens])
        for t in (state.parent, state.sibling))
    return policy.encode_step_inputs(parent, sibling)[0]


def _reference_round(policy, m, cs, rng):
    # the sampling loop with log-prob and entropy summed row by row
    vocab = policy.vocab
    states = [PrefixRow(vocab) for _ in range(m)]
    h = np.zeros((m, policy.hidden_size))
    logp, ent_sum = np.zeros(m), np.zeros(m)
    done, dead = np.zeros(m, dtype=bool), np.zeros(m, dtype=bool)
    while (~done & ~dead).any():
        masks = np.zeros((m, policy.n_tokens), dtype=bool)
        x = np.zeros((m, policy.input_size))
        for i in np.flatnonzero(~done & ~dead):
            mk = states[i].mask(cs)
            dead[i] = not mk.any()
            if mk.any():
                masks[i] = mk
                x[i] = _step_input(policy, states[i])
        active = ~done & ~dead
        if not active.any():
            break
        h_new, logits, _ = policy.step(x, h)
        h = np.where(active[:, None], h_new, h)
        probs = masked_softmax(logits, masks)
        cum = np.cumsum(probs, axis=1)
        choice = ((rng.random(m) * cum[:, -1])[:, None] >= cum).sum(axis=1)
        for i in np.flatnonzero(active):
            a = int(choice[i])
            logp[i] += float(np.log(probs[i, a]))
            ent_sum[i] += float(_entropy_rows(probs[i]))
            states[i].push(vocab[a])
            done[i] = states[i].is_complete
    return [(float(logp[i]), float(ent_sum[i] / len(states[i].tokens)))
            for i in np.flatnonzero(done)]


def test_sample_round_accumulates_like_row_by_row_reference():
    cs = ConstraintSet()
    for seed in range(3):
        pol = PolicyNetwork(_vocab(), seed=seed)
        got = _sample_round(pol, 50, cs, np.random.default_rng(seed))
        want = _reference_round(pol, 50, cs, np.random.default_rng(seed))
        assert [(lp, ent) for _, lp, ent, _ in got["finished"]] == want


def test_surrogate_gradients_match_finite_differences():
    pol = _tiny_policy()
    batch = sample_batch(pol, 12, ConstraintSet(min_length=1),
                         np.random.default_rng(2))
    w = np.random.default_rng(3).uniform(-1.0, 1.0, 12)
    beta = 0.37
    _, grads = surrogate_loss(pol, batch.data, w, beta)
    flat = np.concatenate([grads[n].ravel() for n in pol.PARAM_NAMES])
    theta = pol.get_params()
    eps = 1e-5
    for i in np.random.default_rng(4).choice(theta.size, 60, replace=False):
        tp = theta.copy()
        tp[i] += eps
        pol.set_params(tp)
        lp = surrogate_loss(pol, batch.data, w, beta)[0]
        tm = theta.copy()
        tm[i] -= eps
        pol.set_params(tm)
        lm = surrogate_loss(pol, batch.data, w, beta)[0]
        numeric = (lp - lm) / (2.0 * eps)
        assert flat[i] == pytest.approx(numeric, rel=1e-4, abs=1e-6)


def test_entropy_only_loss_still_produces_gradients():
    pol = _tiny_policy(seed=6)
    batch = sample_batch(pol, 10, ConstraintSet(min_length=1),
                         np.random.default_rng(5))
    _, grads = surrogate_loss(pol, batch.data, np.zeros(10), 0.5)
    total = sum(float(np.abs(g).sum()) for g in grads.values())
    assert total > 0.0


def test_zero_weights_zero_entropy_is_exactly_no_gradient():
    pol = _tiny_policy(seed=7)
    batch = sample_batch(pol, 10, ConstraintSet(min_length=1),
                         np.random.default_rng(8))
    loss, grads = surrogate_loss(pol, batch.data, np.zeros(10), 0.0)
    assert loss == 0.0
    for g in grads.values():
        assert np.all(g == 0.0)


def test_sample_batch_rejects_bad_count():
    with pytest.raises(ValueError):
        sample_batch(PolicyNetwork(_vocab()), 0, ConstraintSet(),
                     np.random.default_rng(0))
