"""Accuracy metrics, Monte-Carlo evaluation, physical-validity checks,
and analytical baseline tables."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from autopl.errors import DataError, TrainingError
from autopl.expr.tree import ExpressionTree, evaluate, structural_scan
from autopl.plmodels import (
    Dataset,
    IndoorParams,
    OutdoorParams,
    eval_fs,
    eval_indoor_empirical,
    eval_mwf,
    eval_outdoor_empirical,
    split,
)


# ---------------------------------------------------------------------------
# metrics


def _check_pair(name: str, pred: np.ndarray, y: np.ndarray):
    pred = np.asarray(pred, dtype=float)
    y = np.asarray(y, dtype=float)
    if pred.ndim != 1 or y.ndim != 1 or pred.shape != y.shape or y.size == 0:
        raise DataError(f"{name}: need matching non-empty 1-d arrays")
    return pred, y


def mae(pred, y) -> float:
    pred, y = _check_pair("mae", pred, y)
    return float(np.mean(np.abs(pred - y)))


def mse(pred, y) -> float:
    pred, y = _check_pair("mse", pred, y)
    return float(np.mean((pred - y) ** 2))


def mape(pred, y) -> float:
    """Mean absolute percentage error, in percent."""
    pred, y = _check_pair("mape", pred, y)
    if np.any(y == 0.0):
        raise DataError("mape: target contains zeros")
    return float(100.0 * np.mean(np.abs((pred - y) / y)))


def r2(pred, y) -> float:
    pred, y = _check_pair("r2", pred, y)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise DataError("r2: target is constant")
    ss_res = float(np.sum((y - pred) ** 2))
    return 1.0 - ss_res / ss_tot


METRICS: dict[str, Callable] = {"mae": mae, "mse": mse, "mape": mape, "r2": r2}


def score(pred, y) -> dict[str, float]:
    """Every metric in METRICS for one prediction."""
    return {m: fn(pred, y) for m, fn in METRICS.items()}


# ---------------------------------------------------------------------------
# Monte-Carlo cross-validation


# what a fit or a prediction may raise on bad data or numeric trouble;
# the package's own error types derive from ValueError and RuntimeError
_RUN_ERRORS = (ValueError, ArithmeticError, RuntimeError,
               np.linalg.LinAlgError)


@dataclass(frozen=True)
class MetricStats:
    mean: float
    std: float
    values: tuple[float, ...]


@dataclass(frozen=True)
class MetricsReport:
    mae: MetricStats
    mse: MetricStats
    mape: MetricStats
    r2: MetricStats
    n_runs: int
    failures: tuple[int, ...] = ()
    failure_reasons: tuple[str, ...] = ()
    predictions: tuple[tuple[np.ndarray, np.ndarray], ...] = ()

    def stats(self, name: str) -> MetricStats:
        return getattr(self, name)


def monte_carlo_eval(fit: Callable[[Dataset], Callable[[np.ndarray], np.ndarray]],
                     ds: Dataset, runs: int = 10, train_fraction: float = 0.8,
                     base_seed: int = 0) -> MetricsReport:
    """Repeated-shuffle evaluation: run i splits with seed base_seed + i,
    fits on the train side, and scores the returned predictor on the test
    side.  Aggregates use the population std over successful runs; each
    successful run's (target, prediction) pair is kept in ``predictions``.

    A run that raises one of _RUN_ERRORS is recorded in ``failures`` with
    its reason; any other exception is a programming error and propagates.
    """
    if runs < 1:
        raise DataError("runs must be at least 1")
    per: dict[str, list[float]] = {m: [] for m in METRICS}
    failures: list[int] = []
    reasons: list[str] = []
    predictions: list[tuple[np.ndarray, np.ndarray]] = []
    for i in range(runs):
        try:
            train_ds, test_ds = split(ds, train_fraction, base_seed + i)
            predictor = fit(train_ds)
            pred = np.asarray(predictor(test_ds.X), dtype=float)
            row = score(pred, test_ds.y)
        except _RUN_ERRORS as exc:
            failures.append(i)
            reasons.append(f"{type(exc).__name__}: {exc}")
            continue
        for m, v in row.items():
            per[m].append(v)
        predictions.append((test_ds.y.copy(), pred.copy()))
    if len(failures) * 2 >= runs:
        raise TrainingError(
            f"{len(failures)} of {runs} evaluation runs failed; "
            f"run {failures[0]}: {reasons[0]}")
    stats = {m: MetricStats(float(np.mean(vs)), float(np.std(vs)), tuple(vs))
             for m, vs in per.items()}
    return MetricsReport(stats["mae"], stats["mse"], stats["mape"],
                         stats["r2"], n_runs=runs, failures=tuple(failures),
                         failure_reasons=tuple(reasons),
                         predictions=tuple(predictions))


# ---------------------------------------------------------------------------
# physical validity


@dataclass(frozen=True)
class ValidityReport:
    """Physical plausibility of a candidate pathloss expression.

    Per-check fields are None when the dataset declares no variable with
    that role; the verdict only weighs applicable checks.
    """

    uses_distance: bool | None
    uses_frequency: bool | None
    monotone_in_distance: bool | None
    monotone_in_frequency: bool | None
    oscillatory_over: frozenset[str]
    verdict: str
    reasons: tuple[str, ...]

    @property
    def valid(self) -> bool:
        return self.verdict == "valid"


_SWEEP_POINTS = 200  # values per variable's monotonicity sweep
_MONOTONE_TOL = 1e-6  # largest step down a monotone sweep may take


def _variable_indices(e: ExpressionTree) -> dict[str, int]:
    out: dict[str, int] = {}
    for t in e.tokens:
        if t.var_index is not None:
            out[t.name] = t.var_index
    return out


def check_validity(e: ExpressionTree, roles: Mapping[str, str],
                   ranges: Mapping[str, tuple[float, float]],
                   medians: Mapping[str, float] | None = None) -> ValidityReport:
    """Large-scale propagation sanity: the expression must use every
    declared physical role, must not wrap distance or frequency in a
    trigonometric term, and must be non-decreasing in each (no step down
    of more than _MONOTONE_TOL) as probed on a sorted sweep of
    _SWEEP_POINTS values with the other features held at their medians;
    a feature without a median is held at its range's midpoint.
    """
    scan = structural_scan(e)
    var_idx = _variable_indices(e)
    for name in var_idx:
        if name not in ranges:
            raise DataError(f"no range given for variable {name!r}")

    def median_of(name: str) -> float:
        if medians is not None and name in medians:
            return float(medians[name])
        lo, hi = ranges[name]
        return 0.5 * (float(lo) + float(hi))

    reasons: list[str] = []
    uses: dict[str, bool | None] = {}
    monotone: dict[str, bool | None] = {}
    oscillatory: set[str] = set()

    width = max(var_idx.values(), default=-1) + 1
    base = np.zeros(width)
    for name, idx in var_idx.items():
        base[idx] = median_of(name)

    for role in ("distance", "frequency"):
        declared = [v for v, r in roles.items() if r == role]
        if not declared:
            uses[role] = None
            monotone[role] = None
            continue
        used = [v for v in declared if v in scan.variables]
        uses[role] = bool(used)
        if not used:
            monotone[role] = None
            reasons.append(f"expression omits {role}")
            continue
        trig_hit = [v for v in used if v in scan.trig_variables]
        if trig_hit:
            oscillatory.add(role)
            reasons.append(
                f"oscillatory term over {role} ({', '.join(sorted(trig_hit))})")
        ok = True
        for v in used:
            lo, hi = (float(x) for x in ranges[v])
            grid = np.linspace(lo, hi, _SWEEP_POINTS)
            X = np.tile(base, (_SWEEP_POINTS, 1))
            X[:, var_idx[v]] = grid
            with np.errstate(all="ignore"):
                pred = evaluate(e, X)
            finite = np.isfinite(pred)
            if finite.sum() <= 0.5 * _SWEEP_POINTS:
                ok = False
                reasons.append(
                    f"non-finite on most of the {v} sweep")
                continue
            steps = np.diff(pred[finite])
            if steps.size and float(steps.min()) < -_MONOTONE_TOL:
                ok = False
                reasons.append(f"not monotone in {v}")
        monotone[role] = ok

    if uses["distance"] is None and uses["frequency"] is None:
        verdict = "not-applicable"
    else:
        applicable_ok = all(
            flag is not False
            for flag in (uses["distance"], uses["frequency"],
                         monotone["distance"], monotone["frequency"]))
        verdict = "valid" if applicable_ok and not oscillatory else "invalid"
    return ValidityReport(uses["distance"], uses["frequency"],
                          monotone["distance"], monotone["frequency"],
                          frozenset(oscillatory), verdict, tuple(reasons))


# ---------------------------------------------------------------------------
# analytical baselines


_INDOOR_COLUMNS = {"distance_m": "d_m", "walls": "n_w", "floors": "n_f"}
_OUTDOOR_COLUMNS = {"distance_m": "d_m", "height_m": "h_m",
                    "frequency_mhz": "f_mhz"}


def baseline_table(ds: Dataset, which: str) -> list[dict]:
    """Deterministic metric rows for the closed-form reference models,
    with shadow terms at zero, scored on the full dataset."""
    cols = {"indoor": _INDOOR_COLUMNS, "outdoor": _OUTDOOR_COLUMNS}.get(which)
    if cols is None:
        raise DataError(f"unknown baseline family {which!r}")
    missing = [c for c in cols.values() if c not in ds.feature_names]
    if missing:
        raise DataError(f"dataset lacks columns {missing}")

    def col(key: str) -> np.ndarray:
        return ds.column(cols[key])

    rows = []
    if which == "indoor":
        params = IndoorParams(d_m=col("distance_m"), n_walls=col("walls"),
                              n_floors=col("floors"))
        preds = [("mwf", eval_mwf(params)),
                 ("indoor-empirical", eval_indoor_empirical(params))]
    else:
        params = OutdoorParams(d_m=col("distance_m"), h_ed_m=col("height_m"),
                               x_sigma_db=0.0)
        preds = [("fs", eval_fs(col("frequency_mhz"), col("distance_m") / 1000.0)),
                 ("outdoor-empirical", eval_outdoor_empirical(params))]
    for method, pred in preds:
        rows.append({"method": method, **score(pred, ds.y)})
    return rows


# ---------------------------------------------------------------------------
# report emission


_TABLE_FIELDS = ("method", "mae_mean", "mae_std", "mse_mean", "mse_std",
                 "mape_mean", "mape_std", "r2_mean", "r2_std",
                 "expression", "valid")


def metrics_row(method: str, report: MetricsReport, expression: str = "",
                valid: str = "") -> dict:
    """One output-table row from a Monte-Carlo report."""
    row: dict = {"method": method, "expression": expression, "valid": valid}
    for m in METRICS:
        st = report.stats(m)
        row[f"{m}_mean"] = st.mean
        row[f"{m}_std"] = st.std
    return row


def single_row(method: str, values: Mapping[str, float], expression: str = "",
               valid: str = "") -> dict:
    """A deterministic row (std exactly 0) from plain metric values."""
    row: dict = {"method": method, "expression": expression, "valid": valid}
    for m in METRICS:
        row[f"{m}_mean"] = float(values[m])
        row[f"{m}_std"] = 0.0
    return row


def write_table_csv(path, rows: Sequence[Mapping],
                    columns: Sequence[str] = _TABLE_FIELDS) -> None:
    """`columns` of each row, with missing ones empty and others left out."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, restval="",
                                extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def format_table(rows: Sequence[Mapping]) -> str:
    """Aligned text summary: method, metric mean+-std, expression, flag."""
    lines = [f"{'method':<20} {'MAE':>16} {'MSE':>18} {'MAPE':>16} "
             f"{'R2':>16}  expression"]
    for row in rows:
        cells = []
        for m in ("mae", "mse", "mape", "r2"):
            cells.append(f"{row[f'{m}_mean']:.3f}+-{row[f'{m}_std']:.3f}")
        flag = f" [{row['valid']}]" if row.get("valid") else ""
        expr = row.get("expression", "")
        lines.append(f"{row['method']:<20} {cells[0]:>16} {cells[1]:>18} "
                     f"{cells[2]:>16} {cells[3]:>16}  {expr}{flag}")
    return "\n".join(lines) + "\n"


def write_scatter_csv(path, predictions: Sequence[tuple[np.ndarray, np.ndarray]]) -> None:
    """Per-run (true, predicted) pairs for scatter plots."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "true_db", "predicted_db"])
        for run, (y_true, y_pred) in enumerate(predictions):
            for t, p in zip(y_true, y_pred):
                writer.writerow([run, f"{t:.10g}", f"{p:.10g}"])
