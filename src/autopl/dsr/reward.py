"""Fitness of a candidate expression against a training dataset."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from autopl.errors import DataError
from autopl.expr.constfit import _mse
from autopl.expr.constraints import ConstraintSet, repeat_penalty
from autopl.expr.tokens import Token
from autopl.expr.tree import ExpressionTree, evaluate
from autopl.plmodels import Dataset


def reward_from_mse(mse: float, sigma: float, tokens: Sequence[Token],
                    cs: ConstraintSet) -> float:
    """`reward` of a tree with the given tokens whose predictions over
    the training rows have mean squared error mse, for a target of
    population std sigma; an infinite mse scores 0."""
    r = 1.0 / (1.0 + math.sqrt(mse) / sigma)
    return float(r * repeat_penalty(tokens, cs))


def reward(e: ExpressionTree, train: Dataset, cs: ConstraintSet) -> float:
    """Squashed inverse NRMSE in [0, 1], discounted for unmet minimum
    token-repeat rules; any non-finite prediction zeroes the reward."""
    sigma = train.y_std
    if sigma == 0.0:
        raise DataError("target is constant, reward undefined")
    pred = evaluate(e, train.X)
    # a non-finite prediction, or a square that overflows, gives an
    # infinite MSE, as it does in a constant fit
    with np.errstate(over="ignore"):
        mse = _mse(pred, train.y)
    return reward_from_mse(mse, sigma, e.tokens, cs)
