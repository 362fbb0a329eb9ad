"""Sampling-grammar rules: masks over the next token and repeat scoring."""

from collections import Counter

import numpy as np
import pytest

from autopl.expr.constraints import (
    ConstraintSet,
    RepeatRule,
    repeat_penalty,
)
from autopl.expr.tokens import Token, Vocabulary
from prefix_row import PrefixRow

VOCAB = Vocabulary.default(["d", "f"])
CS = ConstraintSet()


def _valid_next_tokens(prefix, cs=CS, vocab=VOCAB):
    # the mask after a whole prefix, rebuilt from a fresh one-row state
    state = PrefixRow(vocab)
    for t in prefix:
        state.push(t)
    return state.mask(cs)


def _allowed(prefix, cs=CS, vocab=VOCAB):
    mask = _valid_next_tokens(prefix, cs, vocab)
    return {vocab[i].name for i in np.flatnonzero(mask)}


def _tok(name):
    return VOCAB[VOCAB.index[name]]


def test_root_must_be_operator_under_min_length():
    names = _allowed([])
    # any leaf would complete a length-1 expression, below the minimum
    assert "d" not in names and "C" not in names and "3" not in names
    assert {"add", "sub", "mul", "div", "log10", "sin"} <= names


def test_leaf_root_allowed_when_min_length_is_one():
    cs = ConstraintSet(min_length=1)
    names = _allowed([], cs=cs)
    assert "d" in names and "C" in names


def test_unary_child_cannot_be_constant():
    # min_length=1 keeps the length rule out of the way here
    cs = ConstraintSet(min_length=1)
    names = _allowed([_tok("log10")], cs=cs)
    assert "C" not in names and "3" not in names and "10" not in names
    assert "d" in names and "f" in names and "add" in names


def test_inverse_unary_pairs_masked():
    assert "exp" not in _allowed([_tok("log10")])
    assert "log10" not in _allowed([_tok("exp")])
    # one level deeper the pair is legal again: log10(x + exp(...)) is fine
    assert "exp" in _allowed([_tok("log10"), _tok("add"), _tok("d")])


def test_nested_trig_masked_until_trig_closes():
    assert "sin" not in _allowed([_tok("sin")])
    assert "cos" not in _allowed([_tok("sin")])
    assert "cos" not in _allowed([_tok("sin"), _tok("add"), _tok("d")])
    # once sin's subtree is closed, trig is available again
    names = _allowed([_tok("add"), _tok("sin"), _tok("d")])
    assert "sin" in names and "cos" in names


def test_binary_children_cannot_all_be_constants():
    cs = ConstraintSet(min_length=1)
    # first child may be a literal
    assert "3" in _allowed([_tok("add")], cs=cs)
    # but then the second child must not be constant-like
    names = _allowed([_tok("add"), _tok("3")], cs=cs)
    assert "C" not in names and "5" not in names
    assert "d" in names and "mul" in names
    # variable first child frees the second
    assert "C" in _allowed([_tok("add"), _tok("d")], cs=cs)


def test_constant_subtrees_unreachable_through_operators():
    # inside (add 3 (mul 2 .)) the pending mul already holds a literal,
    # so constant leaves stay masked and a variable must appear
    names = _allowed([_tok("add"), _tok("3"), _tok("mul"), _tok("2")])
    assert all(n not in names for n in ("C", "1", "2", "10"))
    assert "d" in names


def test_min_length_masks_early_completion():
    # completing at length 3 is below the default minimum of 4
    names = _allowed([_tok("add"), _tok("d")])
    assert "f" not in names and "d" not in names
    assert "log10" in names and "add" in names
    # at length 4 completion is allowed
    names = _allowed([_tok("add"), _tok("d"), _tok("log10")])
    assert "f" in names


def test_max_length_masks_tokens_that_cannot_finish():
    cs = ConstraintSet(min_length=1, max_length=5)
    prefix = [_tok("add"), _tok("d"), _tok("mul")]
    names = _allowed(prefix, cs=cs)
    # 3 tokens placed, 2 slots open: another operator could never close
    # within 5 tokens
    assert "add" not in names and "log10" not in names
    assert "d" in names and "C" in names


def test_repeat_max_count_is_hard():
    cs = ConstraintSet(repeat_rules={"d": RepeatRule(max_count=2)})
    prefix = [_tok("add"), _tok("d"), _tok("add"), _tok("d")]
    names = _allowed(prefix, cs=cs)
    assert "d" not in names and "f" in names


def test_repeat_penalty_soft_minimum():
    cs = ConstraintSet(repeat_rules={"d": RepeatRule(min_count=2)})
    seq_zero = [_tok("add"), _tok("f"), _tok("f")]
    seq_one = [_tok("add"), _tok("d"), _tok("f")]
    seq_two = [_tok("add"), _tok("d"), _tok("d")]
    assert repeat_penalty(seq_zero, cs) == pytest.approx(0.25)
    assert repeat_penalty(seq_one, cs) == pytest.approx(0.5)
    assert repeat_penalty(seq_two, cs) == pytest.approx(1.0)
    # deficits accumulate across rules
    cs2 = ConstraintSet(repeat_rules={"d": RepeatRule(min_count=1),
                                      "f": RepeatRule(min_count=1)})
    assert repeat_penalty([_tok("add"), _tok("3"), _tok("C")], cs2) == pytest.approx(0.25)


def test_mask_empty_once_complete():
    mask = _valid_next_tokens([_tok("add"), _tok("d"), _tok("log10"),
                               _tok("f")])
    assert not mask.any()


def test_prefix_state_parent_and_sibling():
    st = PrefixRow(VOCAB)
    assert st.parent is None and st.sibling is None
    st.push(_tok("add"))
    assert st.parent.name == "add" and st.sibling is None
    st.push(_tok("d"))
    assert st.parent.name == "add" and st.sibling.name == "d"
    st.push(_tok("log10"))
    assert st.parent.name == "log10" and st.sibling is None
    st.push(_tok("f"))
    assert st.is_complete
    assert st.parent is None
    with pytest.raises(ValueError):
        st.push(_tok("d"))


def test_sibling_is_subtree_root_not_last_token():
    st = PrefixRow(VOCAB)
    for name in ("add", "mul", "d", "f"):
        st.push(_tok(name))
    # first child of add is the whole (mul d f) subtree; its root is mul
    assert st.parent.name == "add"
    assert st.sibling.name == "mul"


def test_incremental_state_matches_rebuilt_mask():
    rng = np.random.default_rng(3)
    for _ in range(25):
        st = PrefixRow(VOCAB)
        prefix = []
        while not st.is_complete:
            mask = st.mask(CS)
            choices = np.flatnonzero(mask)
            assert choices.size > 0  # default grammar has no dead ends
            tok = VOCAB[int(rng.choice(choices))]
            rebuilt = _valid_next_tokens(prefix)
            assert np.array_equal(mask, rebuilt)
            st.push(tok)
            prefix.append(tok)
        assert CS.min_length <= len(prefix) <= CS.max_length


def _walk(tokens):
    # slots, per-name counts, trig depth and open frames of a prefix, read
    # token by token; a frame is [operator, children done, all constant]
    from autopl.expr.tokens import TRIG_NAMES

    slots, trig, stack = 1, 0, []
    for t in tokens:
        slots += t.arity - 1
        if t.arity:
            stack.append([t, 0, True])
            trig += t.name in TRIG_NAMES
            continue
        const = t.is_constant_leaf
        while stack:
            frame = stack[-1]
            frame[1] += 1
            frame[2] = frame[2] and const
            if frame[1] < frame[0].arity:
                break
            stack.pop()
            trig -= frame[0].name in TRIG_NAMES
            const = False
    return slots, Counter(t.name for t in tokens), trig, stack


def _reference_mask(tokens, cs, vocab):
    # the five rules applied one candidate token at a time
    from autopl.expr.tokens import INVERSE_UNARY, TRIG_NAMES, TokenKind

    out = np.zeros(len(vocab), dtype=bool)
    slots, counts, trig_depth, stack = _walk(tokens)
    if tokens and slots == 0:
        return out
    parent, done, all_const = stack[-1] if stack else (None, 0, True)
    for i, t in enumerate(vocab):
        length_after = len(tokens) + 1
        slots_after = slots - 1 + t.arity
        if slots_after == 0 and length_after < cs.min_length:
            continue
        if length_after + slots_after > cs.max_length:
            continue
        rule = cs.repeat_rules.get(t.name)
        if rule is not None and rule.max_count is not None \
                and counts[t.name] + 1 > rule.max_count:
            continue
        if cs.forbid_nested_trig and t.name in TRIG_NAMES and trig_depth > 0:
            continue
        if cs.forbid_inverse_unary_child and parent is not None \
                and parent.kind is TokenKind.UNARY \
                and INVERSE_UNARY.get(parent.name) == t.name:
            continue
        if cs.forbid_all_constant_children and t.is_constant_leaf \
                and parent is not None:
            if parent.kind is TokenKind.UNARY:
                continue
            if done == parent.arity - 1 and all_const:
                continue
        out[i] = True
    return out


@pytest.mark.parametrize("cs", [
    CS,
    ConstraintSet(min_length=1, max_length=12,
                  repeat_rules={"exp": RepeatRule(max_count=1),
                                "d": RepeatRule(min_count=1, max_count=2),
                                "nope": RepeatRule(max_count=1)}),
    ConstraintSet(min_length=6, max_length=20),
])
def test_mask_matches_rule_by_rule_reference(cs):
    vocab = Vocabulary.default(["d", "f"], unary=("log10", "exp", "sin",
                                                  "cos", "square", "sqrt"))
    rng = np.random.default_rng(11)
    for _ in range(60):
        st = PrefixRow(vocab)
        while not st.is_complete:
            mask = st.mask(cs)
            assert np.array_equal(mask, _reference_mask(st.tokens, cs, vocab))
            slots, counts, trig_depth, stack = _walk(st.tokens)
            assert (st.slots, st.counts, st.trig_depth) == \
                (slots, counts, trig_depth)
            assert st.parent == (stack[-1][0] if stack else None)
            choices = np.flatnonzero(mask)
            if choices.size == 0:
                break
            st.push(vocab[int(rng.choice(choices))])
        assert np.array_equal(st.mask(cs),
                              _reference_mask(st.tokens, cs, vocab))


def test_constraint_set_validation():
    with pytest.raises(ValueError):
        ConstraintSet(min_length=0)
    with pytest.raises(ValueError):
        ConstraintSet(min_length=10, max_length=5)
    with pytest.raises(ValueError):
        RepeatRule(min_count=-1)
    with pytest.raises(ValueError):
        RepeatRule(min_count=3, max_count=2)
