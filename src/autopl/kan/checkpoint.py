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
import math

from autopl.errors import CheckpointError, DataError
from autopl.kan.bspline import BSplineBasis
from autopl.kan.network import KanConfig, KanLayer, KanNetwork

_FORMAT = "kan-checkpoint"
_VERSION = 2


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


# what each kind of field holds; bool is an int subclass
_KINDS = {
    "an integer": lambda v: type(v) is int,
    "a number": lambda v: type(v) in (int, float),
    "a finite number": lambda v: type(v) in (int, float) and math.isfinite(v),
    "0 or 1": lambda v: type(v) is int and v in (0, 1),
}


def _field(obj: dict, key: str, kind: str):
    """obj[key] when it, or each scalar in it as a nested list, is `kind`;
    ValueError naming the field otherwise."""
    def check(value):
        if isinstance(value, list):
            for v in value:
                check(v)
        elif not _KINDS[kind](value):
            raise ValueError(f"{key} holds {value!r}, not {kind}")

    check(obj[key])
    return obj[key]


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
    if doc.get("version") != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {doc.get('version')}")
    saved = doc.get("features")
    if None not in (saved, feature_names) and list(feature_names) != saved:
        raise DataError(f"checkpoint {path} was trained on columns {saved}, "
                        f"not {list(feature_names)}")
    try:
        c = doc["config"]
        if not isinstance(c["shape"], list):
            raise ValueError(f"shape {c['shape']!r} is not a list")
        cfg = KanConfig(
            **{k: _field(c, k, "an integer")
               for k in ("shape", "grid_size", "order", "steps", "seed")},
            **{k: float(_field(c, k, "a number"))
               for k in ("reg_lambda", "lo", "hi")})
        basis = BSplineBasis(cfg.grid_size, cfg.order, cfg.lo, cfg.hi)
        layers = [
            KanLayer(basis, *(_field(entry, k, "a finite number")
                              for k in ("w_base", "w_spline", "coeffs")),
                     _field(entry, "prune_mask", "0 or 1"))
            for entry in doc["layers"]
        ]
        return KanNetwork(layers, cfg,
                          _field(doc, "input_scale", "a finite number"))
    except (LookupError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint {path}: {exc}") from exc
