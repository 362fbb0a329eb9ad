"""Closed-form radio pathloss models and dataset plumbing.

Implements the standard multi-frequency fits (alpha-beta-gamma and
close-in free-space-reference), two single-frequency empirical fits for
sub-GHz links (one indoor with wall/floor penetration, one outdoor with
end-device height), the multi-wall-floor model, and plain free-space
loss.  All evaluators work in dB and accept scalars or numpy arrays of
matching shape.

The same module owns the tabular `Dataset` container used everywhere
else: synthetic generation from parameter ranges, CSV ingestion of
measurement campaigns, max-normalization of feature columns, and
train/test splitting.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from autopl.errors import DataError, DomainError

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact


def _positive(name: str, value) -> None:
    if np.any(np.asarray(value) <= 0):
        raise DomainError(f"{name} must be positive")


def _non_negative(name: str, value) -> None:
    if np.any(np.asarray(value) < 0):
        raise DomainError(f"{name} must be non-negative")


def _ret(value):
    # scalar in, float out; array in, array out
    arr = np.asarray(value, dtype=float)
    return float(arr) if arr.ndim == 0 else arr


# ---------------------------------------------------------------------------
# parameter bundles


@dataclass(frozen=True)
class AbgParams:
    """Inputs of the alpha-beta-gamma model.

    alpha scales the distance term, beta is the offset in dB, gamma
    scales the frequency term.  Frequency is in GHz, distance in metres,
    chi_db is the shadow-fading realization (0 for the mean curve).
    """

    alpha: float
    beta: float
    gamma: float
    f_ghz: float
    d_m: float
    chi_db: float = 0.0


@dataclass(frozen=True)
class CiParams:
    """Inputs of the close-in free-space-reference model.

    Frequency is in Hz (the 1 m free-space anchor needs absolute
    frequency), n is the pathloss exponent.
    """

    f_hz: float
    n: float
    d_m: float
    chi_db: float = 0.0


@dataclass(frozen=True)
class IndoorParams:
    """Distance plus wall and floor counts traversed by an indoor link."""

    d_m: float
    n_walls: float
    n_floors: float


@dataclass(frozen=True)
class OutdoorParams:
    d_m: float
    h_ed_m: float
    x_sigma_db: float = 0.0


@dataclass(frozen=True)
class EmpiricalConstants:
    """Fitted constants of the single-frequency empirical models."""

    n: float
    pl0_db: float
    b: float = 0.0
    l_w_db: float = 0.0
    l_f_db: float = 0.0
    l_h_db: float = 0.0
    sigma_db: float = 0.0


INDOOR_EMPIRICAL = EmpiricalConstants(
    n=2.85, pl0_db=120.4, b=0.47, l_w_db=1.41, l_f_db=10.0
)
OUTDOOR_EMPIRICAL = EmpiricalConstants(n=3.119, pl0_db=140.7, l_h_db=-4.7, sigma_db=9.7)


# ---------------------------------------------------------------------------
# model evaluation


def fspl_1m(f_hz):
    """Free-space pathloss in dB at the 1 m reference distance."""
    _positive("f_hz", f_hz)
    return _ret(20.0 * np.log10(4.0 * np.pi * np.asarray(f_hz, float) / SPEED_OF_LIGHT))


def eval_abg(p: AbgParams):
    _positive("d_m", p.d_m)
    _positive("f_ghz", p.f_ghz)
    d = np.asarray(p.d_m, float)
    f = np.asarray(p.f_ghz, float)
    return _ret(10.0 * np.asarray(p.alpha) * np.log10(d)
                + np.asarray(p.beta)
                + 10.0 * np.asarray(p.gamma) * np.log10(f)
                + np.asarray(p.chi_db))


def eval_ci(p: CiParams):
    _positive("d_m", p.d_m)
    d = np.asarray(p.d_m, float)
    return _ret(fspl_1m(p.f_hz) + 10.0 * np.asarray(p.n) * np.log10(d)
                + np.asarray(p.chi_db))


def eval_indoor_empirical(p: IndoorParams):
    """Indoor empirical fit with a floor-count dependent penetration exponent."""
    _positive("d_m", p.d_m)
    _non_negative("n_walls", p.n_walls)
    _non_negative("n_floors", p.n_floors)
    d = np.asarray(p.d_m, float)
    nf = np.asarray(p.n_floors, float)
    c = INDOOR_EMPIRICAL
    exponent = (nf + 2.0) / (nf + 1.0) - c.b
    floor_term = np.power(nf, exponent) * c.l_f_db
    return _ret(10.0 * c.n * np.log10(d) + c.pl0_db
                + np.asarray(p.n_walls, float) * c.l_w_db + floor_term)


def eval_mwf(p: IndoorParams):
    """Multi-wall-floor model: penetration losses accumulate linearly."""
    _positive("d_m", p.d_m)
    _non_negative("n_walls", p.n_walls)
    _non_negative("n_floors", p.n_floors)
    d = np.asarray(p.d_m, float)
    c = INDOOR_EMPIRICAL
    return _ret(10.0 * c.n * np.log10(d) + c.pl0_db
                + np.asarray(p.n_walls, float) * c.l_w_db
                + np.asarray(p.n_floors, float) * c.l_f_db)


def eval_outdoor_empirical(p: OutdoorParams):
    _positive("d_m", p.d_m)
    _positive("h_ed_m", p.h_ed_m)
    d = np.asarray(p.d_m, float)
    h = np.asarray(p.h_ed_m, float)
    c = OUTDOOR_EMPIRICAL
    return _ret(10.0 * c.n * np.log10(d) + c.pl0_db
                + c.l_h_db * np.log10(h) + np.asarray(p.x_sigma_db))


def eval_fs(f_mhz, d_km):
    """Free-space loss with frequency in MHz and distance in km."""
    _positive("f_mhz", f_mhz)
    _positive("d_km", d_km)
    f = np.asarray(f_mhz, float)
    d = np.asarray(d_km, float)
    return _ret(20.0 * np.log10(f) + 20.0 * np.log10(d) + 32.44)


# ---------------------------------------------------------------------------
# datasets


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus pathloss target, all finite float64."""

    feature_names: tuple[str, ...]
    X: np.ndarray
    y: np.ndarray
    provenance: str

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        if X.ndim != 2:
            raise DataError("feature matrix must be 2-d")
        if len(self.feature_names) != X.shape[1]:
            raise DataError("feature name count does not match column count")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise DataError("feature names must be unique")
        if y.shape != (X.shape[0],):
            raise DataError("target length does not match row count")
        if not np.all(np.isfinite(X)):
            raise DataError("feature matrix contains non-finite values")
        if not np.all(np.isfinite(y)):
            raise DataError("target contains non-finite values")

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @functools.cached_property
    def y_std(self) -> float:
        """Population std of the target, computed once."""
        return float(np.std(self.y))

    def column(self, name: str) -> np.ndarray:
        try:
            i = self.feature_names.index(name)
        except ValueError:
            raise DataError(f"no feature named {name!r}") from None
        return self.X[:, i]

    def subset(self, idx) -> "Dataset":
        return replace(self, X=self.X[idx], y=self.y[idx])


# Sampling ranges for the synthetic campaigns.  Shadow-fading sigma is
# drawn per row but only its realization (chi) becomes a feature.
ABG_RANGES: dict[str, tuple[float, float]] = {
    "alpha": (0.1, 2.5),
    "beta": (-10.0, -1.0),
    "gamma": (0.0, 2.0),
    "f_ghz": (2.0, 73.5),
    "d_m": (1.0, 500.0),
    "sigma_db": (4.0, 12.0),
}

CI_RANGES: dict[str, tuple[float, float]] = {
    "f_ghz": (2.0, 73.5),
    "n": (2.0, 6.0),
    "d_m": (1.0, 500.0),
    "sigma_db": (4.0, 12.0),
}


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic campaign: model kind, size, seed."""

    model_kind: str
    count: int = 1000
    seed: int = 0


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Draw a labelled synthetic campaign from one pathloss family.

    Parameters are sampled uniformly in their ranges, shadow fading is a
    zero-mean normal draw whose per-row sigma is itself uniform, and the
    target column is the exact model output.  Fixed seed, fixed spec,
    identical dataset.
    """
    if spec.count < 1:
        raise DomainError("count must be at least 1")
    ranges = {"abg": ABG_RANGES, "ci": CI_RANGES}.get(spec.model_kind)
    if ranges is None:
        raise DomainError(f"unknown synthetic model kind {spec.model_kind!r}")
    rng = np.random.default_rng(spec.seed)
    provenance = f"synthetic:{spec.model_kind}:seed={spec.seed}:count={spec.count}"
    # one draw per parameter, in the ranges' order, then the fading
    draw = {key: rng.uniform(lo, hi, size=spec.count)
            for key, (lo, hi) in ranges.items()}
    chi = rng.standard_normal(spec.count) * draw["sigma_db"]

    if spec.model_kind == "abg":
        names = ("alpha", "beta", "gamma", "f_ghz", "d_m", "chi_db")
        cols = [draw[name] for name in names[:-1]] + [chi]
        y = eval_abg(AbgParams(*cols))
    else:
        names = ("f_hz", "n", "d_m", "chi_db")
        cols = [draw["f_ghz"] * 1e9, draw["n"], draw["d_m"], chi]
        y = eval_ci(CiParams(*cols))
    return Dataset(feature_names=names, X=np.column_stack(cols), y=y,
                   provenance=provenance)


def max_abs(ds: Dataset) -> np.ndarray:
    """Each feature column's largest magnitude: the divisors that put the
    columns in [-1, 1] with their signs intact."""
    divisors = np.max(np.abs(ds.X), axis=0)
    for name, div in zip(ds.feature_names, divisors):
        if div == 0.0:
            raise DataError(f"cannot normalize: column {name!r} is all zero")
    return divisors


def normalize_max(ds: Dataset) -> Dataset:
    """Divide every feature column by its largest magnitude; the target
    is never touched."""
    return replace(ds, X=ds.X / max_abs(ds))


def split(ds: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Shuffled train/test split; train gets ceil(fraction * rows)."""
    if not 0.0 < train_fraction < 1.0:
        raise DomainError("train_fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(ds.n_rows)
    n_train = math.ceil(train_fraction * ds.n_rows)
    if n_train >= ds.n_rows:
        raise DataError("split leaves an empty test set")
    return ds.subset(order[:n_train]), ds.subset(order[n_train:])


# ---------------------------------------------------------------------------
# CSV ingestion and persistence


@dataclass(frozen=True)
class LoadReport:
    """Row accounting from a CSV ingest."""

    total_rows: int
    kept_rows: int
    dropped_rows: int


def load_empirical_csv(path, target: str) -> tuple[Dataset, LoadReport]:
    """Read a measurement CSV whose column `target` holds the pathloss;
    every other column is a feature, in file order.  Rows with a missing,
    unparsable, or non-finite value in any column are dropped and
    counted."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        if not header:
            raise DataError("input CSV has no header")
        if target not in header:
            raise DataError(f"target column {target!r} not in input")
        features = [c for c in header if c != target]
        if not features:
            raise DataError(f"input CSV has no column besides {target!r}")
        rows: list[list[float]] = []
        targets_col: list[float] = []
        total = 0
        for record in reader:
            total += 1
            try:
                values = [float(record[c]) for c in features]
                t = float(record[target])
            except (TypeError, ValueError):
                continue
            if not all(math.isfinite(v) for v in values) or not math.isfinite(t):
                continue
            rows.append(values)
            targets_col.append(t)

    if not rows:
        raise DataError(f"no usable rows in {os.path.basename(str(path))}")
    report = LoadReport(total_rows=total, kept_rows=len(rows),
                        dropped_rows=total - len(rows))
    ds = Dataset(
        feature_names=tuple(features),
        X=np.asarray(rows, dtype=float),
        y=np.asarray(targets_col, dtype=float),
        provenance=f"file:{os.path.basename(str(path))}",
    )
    return ds, report


def write_csv(ds: Dataset, path) -> None:
    """Write features plus a final pl_db target column, round-trip exact."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.feature_names) + ["pl_db"])
        for i in range(ds.n_rows):
            writer.writerow(["%.17g" % v for v in ds.X[i]] + ["%.17g" % ds.y[i]])


def read_norm(path) -> dict[str, float]:
    """The feature divisors a ``.norm.json`` sidecar records."""
    try:
        with open(path) as fh:
            return {k: float(v) for k, v in json.load(fh).items()}
    except (AttributeError, TypeError, ValueError) as exc:
        raise DataError(f"malformed norm file {path}: {exc}") from None


def read_csv(path) -> Dataset:
    """Read a dataset written by `write_csv`, in original units.

    Earlier versions could store max-normalized columns with their
    divisors in a ``.norm.json`` sidecar; such columns are multiplied
    back here.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[-1] != "pl_db":
            raise DataError("dataset CSV must end with a pl_db column")
        rows = []
        for row in filter(None, reader):
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} cells, the header has "
                                     f"{len(header)}")
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise DataError(f"{path}, line {reader.line_num}: {exc}") from None
    if not rows:
        raise DataError("dataset CSV has no rows")
    arr = np.asarray(rows, dtype=float)
    names = tuple(header[:-1])
    X = arr[:, :-1]
    sidecar = str(path) + ".norm.json"
    if os.path.exists(sidecar):
        norm = read_norm(sidecar)
        X = X * np.array([norm.get(n, 1.0) for n in names])
    return Dataset(
        feature_names=names,
        X=X,
        y=arr[:, -1],
        provenance=f"file:{os.path.basename(str(path))}",
    )
