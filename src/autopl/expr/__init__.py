"""Symbolic expression trees in prefix form, with grammar-aware sampling
constraints and numeric constant fitting."""

from autopl.expr.tokens import Token, TokenKind, Vocabulary
from autopl.expr.tree import (
    ExpressionTree,
    evaluate,
    is_complete,
    prepare,
    structural_scan,
    to_infix,
    tree_from_json,
    tree_to_json,
)
from autopl.expr.constraints import (
    ConstraintSet,
    PrefixState,
    RepeatRule,
    repeat_penalty,
    valid_next_tokens,
)
from autopl.expr.constfit import FitResult, optimize_constants

__all__ = [
    "ConstraintSet",
    "ExpressionTree",
    "FitResult",
    "PrefixState",
    "RepeatRule",
    "Token",
    "TokenKind",
    "Vocabulary",
    "evaluate",
    "is_complete",
    "optimize_constants",
    "prepare",
    "repeat_penalty",
    "structural_scan",
    "to_infix",
    "tree_from_json",
    "tree_to_json",
    "valid_next_tokens",
]
