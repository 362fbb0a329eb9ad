"""Lossless persistence for spline-edge networks.

Checkpoints are JSON: Python float repr round-trips doubles exactly, so
a save/load cycle reproduces predictions bit for bit.  A checkpoint holds
the whole network, its input scale included, so it is one self-contained
file.  It may record the training data's feature names, for a load to
check its columns by.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from autopl.errors import CheckpointError, DataError
from autopl.kan.bspline import BSplineBasis
from autopl.kan.network import KanConfig, KanLayer, KanNetwork

_FORMAT = "kan-checkpoint"
_VERSION = 2  # version 1 had no input scale


def save_kan(net: KanNetwork, path, feature_names=None) -> None:
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "config": dataclasses.asdict(net.config),
        "input_scale": net.input_scale.tolist(),
        "layers": [
            {
                "w_base": layer.w_base.tolist(),
                "w_spline": layer.w_spline.tolist(),
                "coeffs": layer.coeffs.tolist(),
                "prune_mask": layer.prune_mask.astype(int).tolist(),
            }
            for layer in net.layers
        ],
    }
    if feature_names is not None:
        doc["features"] = list(feature_names)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_kan(path, feature_names=None) -> KanNetwork:
    """Read a checkpoint; DataError if it records feature names other
    than ``feature_names``, the columns it will be fed."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise CheckpointError(f"not a network checkpoint: {path}")
    if doc.get("version") == 1:
        raise CheckpointError(f"checkpoint {path} predates stored input "
                              f"scaling (version 1); rerun train-kan")
    if doc.get("version") != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {doc.get('version')}")
    saved = doc.get("features")
    if None not in (saved, feature_names) and list(feature_names) != saved:
        raise DataError(f"checkpoint {path} was trained on columns {saved}, "
                        f"not {list(feature_names)}")
    try:
        c = doc["config"]
        cfg = KanConfig(shape=tuple(c["shape"]), grid_size=int(c["grid_size"]),
                        order=int(c["order"]), steps=int(c["steps"]),
                        reg_lambda=float(c["reg_lambda"]), seed=int(c["seed"]),
                        lo=float(c["lo"]), hi=float(c["hi"]))
        basis = BSplineBasis(cfg.grid_size, cfg.order, cfg.lo, cfg.hi)
        layers = [
            KanLayer(basis,
                     np.asarray(entry["w_base"], dtype=float),
                     np.asarray(entry["w_spline"], dtype=float),
                     np.asarray(entry["coeffs"], dtype=float),
                     np.asarray(entry["prune_mask"], dtype=bool))
            for entry in doc["layers"]
        ]
        return KanNetwork(layers, cfg,
                          np.asarray(doc["input_scale"], dtype=float))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint {path}: {exc}") from exc
