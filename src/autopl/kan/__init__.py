"""Spline-edge networks: sums of learnable 1-d functions on every edge,
with pruning and symbolic read-out of the trained edge shapes."""

from autopl.kan.bspline import BSplineBasis
from autopl.kan.network import KanConfig, build_network
from autopl.kan.train import edge_importance, prune, train
from autopl.kan.symbolic import auto_symbolic, extract_expression, retrain_affine
from autopl.kan.checkpoint import load_kan, save_kan

__all__ = [
    "BSplineBasis",
    "KanConfig",
    "auto_symbolic",
    "build_network",
    "edge_importance",
    "extract_expression",
    "load_kan",
    "prune",
    "retrain_affine",
    "save_kan",
    "train",
]
