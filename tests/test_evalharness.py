import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autopl.dsr.policy import PolicyNetwork, sample_batch
from autopl.errors import DataError, TrainingError
from autopl.evalharness import (
    METRICS,
    MetricsReport,
    baseline_table,
    check_validity,
    format_table,
    formula_columns,
    infer_roles,
    mae,
    mape,
    metrics_row,
    monte_carlo_eval,
    mse,
    r2,
    read_table_csv,
    single_row,
    verdict,
    write_scatter_csv,
    write_table_csv,
)
from autopl.expr.constraints import ConstraintSet
from autopl.expr.tokens import Token, Vocabulary
from autopl.expr.tree import ExpressionTree, to_infix
from autopl.plmodels import (
    Dataset,
    IndoorParams,
    OutdoorParams,
    SyntheticSpec,
    eval_fs,
    eval_indoor_empirical,
    eval_mwf,
    eval_outdoor_empirical,
    generate_synthetic,
)


def _tree(*tokens):
    return ExpressionTree(tuple(tokens))


ADD = Token.binary("add")
SUB = Token.binary("sub")
MUL = Token.binary("mul")
DIV = Token.binary("div")
LOG = Token.unary("log10")
COS = Token.unary("cos")


def test_metric_examples():
    pred = np.array([110.0])
    y = np.array([100.0])
    assert mae(pred, y) == 10.0
    assert mse(pred, y) == 100.0
    assert mape(pred, y) == 10.0
    y2 = np.array([100.0, 200.0])
    assert r2(np.full(2, y2.mean()), y2) == 0.0
    assert r2(y2, y2) == 1.0
    assert mae(y2, y2) == 0.0


def test_metric_oracle_equivalence():
    # naive loop re-implementations, checked on every length 1..100
    rng = np.random.default_rng(7)
    for n in range(1, 101):
        y = rng.uniform(50.0, 150.0, n)
        pred = y + rng.normal(0.0, 5.0, n)
        s_abs = sum(abs(p - t) for p, t in zip(pred, y))
        s_sq = sum((p - t) ** 2 for p, t in zip(pred, y))
        s_pct = sum(abs((p - t) / t) for p, t in zip(pred, y))
        assert mae(pred, y) == pytest.approx(s_abs / n, abs=1e-12)
        assert mse(pred, y) == pytest.approx(s_sq / n, abs=1e-12)
        assert mape(pred, y) == pytest.approx(100.0 * s_pct / n, abs=1e-12)
        if n > 1:
            yb = sum(y) / n
            tot = sum((t - yb) ** 2 for t in y)
            assert r2(pred, y) == pytest.approx(1.0 - s_sq / tot, abs=1e-12)


def test_metric_shift_invariance():
    rng = np.random.default_rng(3)
    y = rng.uniform(60.0, 140.0, 50)
    pred = y + rng.normal(0.0, 4.0, 50)
    c = 37.5
    assert mae(pred + c, y + c) == pytest.approx(mae(pred, y), abs=1e-12)
    assert r2(pred + c, y + c) == pytest.approx(r2(pred, y), abs=1e-12)
    # mape is scale-referenced, a shift must change it
    assert mape(pred + c, y + c) != pytest.approx(mape(pred, y), abs=1e-9)


def test_metric_preconditions():
    with pytest.raises(DataError, match="mae"):
        mae(np.ones(3), np.ones(4))
    with pytest.raises(DataError, match="mse"):
        mse(np.ones(0), np.ones(0))
    with pytest.raises(DataError, match="mape"):
        mape(np.ones(3), np.array([1.0, 0.0, 2.0]))
    with pytest.raises(DataError, match="r2"):
        r2(np.array([1.0, 2.0]), np.array([5.0, 5.0]))


def _toy_dataset(n=120, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(1.0, 10.0, (n, 2))
    y = 3.0 * X[:, 0] + 40.0 + rng.normal(0.0, 0.5, n)
    return Dataset(("a", "b"), X, y, "test")


def _lsq_fit(train_ds):
    A = np.column_stack([train_ds.X[:, 0], np.ones(len(train_ds.y))])
    coef, *_ = np.linalg.lstsq(A, train_ds.y, rcond=None)

    def predict(X):
        return coef[0] * X[:, 0] + coef[1]

    return predict


def test_monte_carlo_deterministic_and_aggregation():
    ds = _toy_dataset()
    rep1 = monte_carlo_eval(_lsq_fit, ds, runs=6, train_fraction=0.8,
                            base_seed=11)
    rep2 = monte_carlo_eval(_lsq_fit, ds, runs=6, train_fraction=0.8,
                            base_seed=11)
    assert rep1.mae.values == rep2.mae.values
    assert rep1.r2.values == rep2.r2.values
    assert rep1.n_runs == 6 and rep1.failures == ()
    # aggregation identity
    assert rep1.mae.mean == pytest.approx(np.mean(rep1.mae.values), abs=1e-12)
    assert rep1.mse.std == pytest.approx(np.std(rep1.mse.values), abs=1e-12)
    # different base seed shuffles the splits
    rep3 = monte_carlo_eval(_lsq_fit, ds, runs=6, train_fraction=0.8,
                            base_seed=99)
    assert rep3.mae.values != rep1.mae.values


def test_monte_carlo_single_run_std_zero():
    ds = _toy_dataset()
    rep = monte_carlo_eval(_lsq_fit, ds, runs=1, base_seed=5)
    assert rep.mae.std == 0.0
    assert rep.r2.std == 0.0


def test_monte_carlo_identical_splits_identical_values():
    # deterministic fit on a fixed split: rerunning cannot move any metric
    ds = _toy_dataset()
    a = monte_carlo_eval(_lsq_fit, ds, runs=1, base_seed=4)
    b = monte_carlo_eval(_lsq_fit, ds, runs=1, base_seed=4)
    assert a.mae.values == b.mae.values
    assert np.std([a.mae.values[0], b.mae.values[0]]) == 0.0


def test_monte_carlo_failures_recorded():
    ds = _toy_dataset()
    calls = {"i": 0}

    def flaky(train_ds):
        calls["i"] += 1
        if calls["i"] == 1:
            raise RuntimeError("boom")
        return _lsq_fit(train_ds)

    rep = monte_carlo_eval(flaky, ds, runs=5, base_seed=0)
    assert rep.failures == (0,)
    assert len(rep.mae.values) == 4

    def broken(train_ds):
        raise RuntimeError("boom")

    with pytest.raises(TrainingError):
        monte_carlo_eval(broken, ds, runs=4, base_seed=0)


def test_monte_carlo_failure_reasons_recorded():
    ds = _toy_dataset()
    calls = {"i": 0}

    def flaky(train_ds):
        calls["i"] += 1
        if calls["i"] == 2:
            raise DataError("degenerate split")
        return _lsq_fit(train_ds)

    rep = monte_carlo_eval(flaky, ds, runs=4, base_seed=0)
    assert rep.failures == (1,)
    assert rep.failure_reasons == ("DataError: degenerate split",)
    assert len(rep.mae.values) == 3

    def broken(train_ds):
        raise DataError("no usable rows")

    with pytest.raises(TrainingError,
                       match="4 of 4 .* run 0: DataError: no usable rows"):
        monte_carlo_eval(broken, ds, runs=4, base_seed=0)


def test_monte_carlo_programming_errors_propagate():
    ds = _toy_dataset()

    def typo(train_ds):
        raise TypeError("predict() takes 1 positional argument")

    with pytest.raises(TypeError, match="positional argument"):
        monte_carlo_eval(typo, ds, runs=4, base_seed=0)


def test_monte_carlo_keep_predictions():
    ds = _toy_dataset()
    rep = monte_carlo_eval(_lsq_fit, ds, runs=3, base_seed=2)
    assert len(rep.predictions) == 3
    y_true, y_pred = rep.predictions[0]
    assert y_true.shape == y_pred.shape
    assert mae(y_pred, y_true) == pytest.approx(rep.mae.values[0], abs=1e-12)


# validity ------------------------------------------------------------------

_D = Token.variable("d", 0)
_F = Token.variable("f", 1)
_ROLES = {"d": "distance", "f": "frequency"}
_RANGES = {"d": (1.0, 100.0), "f": (1.0, 10.0)}


def test_validity_monotone_log_sum():
    # 10 log10(d) + 2 f + 30
    e = _tree(ADD, ADD, MUL, Token.literal(10.0), LOG, _D,
              MUL, Token.literal(2.0), _F, Token.literal(30.0))
    rep = check_validity(e, _ROLES, _RANGES)
    assert rep.verdict == "valid" and rep.valid
    assert rep.uses_distance and rep.uses_frequency
    assert rep.monotone_in_distance and rep.monotone_in_frequency
    assert rep.oscillatory_over == frozenset()
    assert rep.reasons == ()


def test_validity_missing_distance():
    e = _tree(ADD, MUL, Token.literal(2.0), _F, Token.literal(30.0))
    rep = check_validity(e, _ROLES, _RANGES)
    assert rep.verdict == "invalid"
    assert rep.uses_distance is False
    assert rep.monotone_in_distance is None
    assert rep.monotone_in_frequency is True
    assert any("distance" in r for r in rep.reasons)


def test_validity_oscillatory_frequency():
    # d + cos(log10(f)): trig wraps f through the inner log
    e = _tree(ADD, _D, COS, LOG, _F)
    rep = check_validity(e, _ROLES, _RANGES)
    assert rep.verdict == "invalid"
    assert rep.oscillatory_over == frozenset({"frequency"})


def test_validity_decreasing_fails():
    # 100 - d
    e = _tree(SUB, Token.literal(100.0), _D)
    rep = check_validity(e, _ROLES, _RANGES)
    assert rep.verdict == "invalid"
    assert rep.monotone_in_distance is False
    assert any("monotone" in r for r in rep.reasons)


def test_validity_held_features_at_medians():
    # d * (f - 3): monotone in d only when the held f value exceeds 3,
    # so the supplied medians decide the outcome
    e = _tree(MUL, _D, SUB, _F, Token.literal(3.0))
    good = check_validity(e, _ROLES, _RANGES, medians={"d": 10.0, "f": 8.0})
    bad = check_validity(e, _ROLES, _RANGES, medians={"d": 10.0, "f": 1.0})
    assert good.monotone_in_distance is True
    assert bad.monotone_in_distance is False


def test_validity_nonfinite_majority_invalid():
    # log10(50 - d) over d in [1, 100]: more than half the sweep is nan
    e = _tree(ADD, LOG, SUB, Token.literal(50.0), _D, _F)
    rep = check_validity(e, _ROLES, {"d": (1.0, 100.0), "f": (1.0, 10.0)})
    assert rep.verdict == "invalid"
    assert any("non-finite" in r for r in rep.reasons)


def test_validity_no_roles_not_applicable():
    e = _tree(ADD, Token.variable("x", 0), Token.literal(1.0))
    rep = check_validity(e, {"x": "other"}, {"x": (0.0, 1.0)})
    assert rep.verdict == "not-applicable"
    assert rep.uses_distance is None and rep.uses_frequency is None


_ROLE_SETS = [{"d": "distance", "f": "frequency"}, {"d": "distance"},
              {"f": "frequency"}, {"d": "distance", "h": "distance"}]


@settings(max_examples=15, deadline=None, database=None)
@given(st.integers(0, 2 ** 16))
def test_validity_verdict_is_invalid_exactly_when_a_check_gives_a_reason(seed):
    # formulas as the DSR engine samples them, with literals for constants
    vocab = Vocabulary.default(("d", "f", "h"), include_const=False)
    batch = sample_batch(PolicyNetwork(vocab, seed=seed), 30,
                         ConstraintSet(min_length=3),
                         np.random.default_rng(seed))
    ranges = {"d": (1.0, 1000.0), "f": (100.0, 6000.0), "h": (1.0, 30.0)}
    for e in batch.sequences:
        for roles in _ROLE_SETS:
            rep = check_validity(e, roles, ranges)
            assert (rep.verdict == "invalid") == bool(rep.reasons)


def test_validity_missing_range_rejected():
    e = _tree(ADD, _D, _F)
    with pytest.raises(DataError, match="f"):
        check_validity(e, _ROLES, {"d": (1.0, 100.0)})


def test_infer_roles():
    roles = infer_roles(("alpha", "f_ghz", "d_m", "chi_db"))
    assert roles == {"f_ghz": "frequency", "d_m": "distance"}
    assert infer_roles(("a", "b")) == {}


def test_verdict_is_empty_without_role_columns():
    ds = _toy_dataset()
    e = _tree(ADD, Token.variable("a", 0), Token.literal(1.0))
    assert verdict(e, ds) == ""
    assert formula_columns(e, ds) == {"expression": to_infix(e), "valid": ""}


def test_verdict_on_ci_data_is_check_validity_over_its_ranges_and_medians():
    ds = generate_synthetic(SyntheticSpec("ci", count=200, seed=7))
    names = ds.feature_names
    roles = {"f_hz": "frequency", "d_m": "distance"}
    ranges = {n: (ds.column(n).min(), ds.column(n).max()) for n in names}
    medians = {n: np.median(ds.column(n)) for n in names}
    var = {n: Token.variable(n, i) for i, n in enumerate(names)}
    # (n - c) log10(d_m) + log10(f_hz), with c between n's median and its
    # range's midpoint: n held at one of the two makes the formula rise
    # with distance, at the other fall
    c = 0.5 * (medians["n"] + 0.5 * sum(ranges["n"]))
    held = _tree(ADD, MUL, SUB, var["n"], Token.literal(c), LOG, var["d_m"],
                 LOG, var["f_hz"])
    # 10 log10(d_m) + 20 log10(f_hz) + chi_db
    log_sum = _tree(ADD, ADD, MUL, Token.literal(10.0), LOG, var["d_m"],
                    MUL, Token.literal(20.0), LOG, var["f_hz"], var["chi_db"])
    for e in (held, log_sum):
        want = check_validity(e, roles, ranges, medians=medians).verdict
        assert verdict(e, ds) == want
        assert formula_columns(e, ds) == {"expression": to_infix(e),
                                          "valid": want}
    assert verdict(log_sum, ds) == "valid"
    assert verdict(held, ds) != check_validity(held, roles, ranges).verdict


# baselines ------------------------------------------------------------------


def _indoor_dataset(n=200, seed=4):
    rng = np.random.default_rng(seed)
    d = rng.uniform(1.0, 50.0, n)
    n_w = rng.integers(0, 6, n).astype(float)
    n_f = rng.integers(0, 3, n).astype(float)
    y = eval_indoor_empirical(IndoorParams(d, n_w, n_f)) + rng.normal(0, 2, n)
    X = np.column_stack([d, n_w, n_f])
    return Dataset(("d_m", "n_w", "n_f"), X, y, "test")


def _outdoor_dataset(n=200, seed=9):
    rng = np.random.default_rng(seed)
    d = rng.uniform(10.0, 500.0, n)
    h = rng.uniform(1.0, 10.0, n)
    f = np.full(n, 868.0)
    y = eval_outdoor_empirical(OutdoorParams(d, h)) + rng.normal(0, 3, n)
    X = np.column_stack([d, h, f])
    return Dataset(("d_m", "h_m", "f_mhz"), X, y, "test")


def test_baseline_table_indoor():
    ds = _indoor_dataset()
    rows = baseline_table(ds, "indoor")
    assert [r["method"] for r in rows] == ["mwf", "indoor-empirical"]
    params = IndoorParams(ds.column("d_m"), ds.column("n_w"),
                          ds.column("n_f"))
    assert rows[0]["mae"] == pytest.approx(
        mae(eval_mwf(params), ds.y), abs=1e-12)
    assert rows[1]["mae"] == pytest.approx(
        mae(eval_indoor_empirical(params), ds.y), abs=1e-12)
    # generator noise is small, the matching empirical row must fit well
    assert rows[1]["r2"] > 0.9


def test_baseline_table_outdoor():
    ds = _outdoor_dataset()
    rows = baseline_table(ds, "outdoor")
    assert [r["method"] for r in rows] == ["fs", "outdoor-empirical"]
    fs = eval_fs(ds.column("f_mhz"), ds.column("d_m") / 1000.0)
    assert rows[0]["mae"] == pytest.approx(mae(fs, ds.y), abs=1e-12)
    eo = eval_outdoor_empirical(
        OutdoorParams(ds.column("d_m"), ds.column("h_m"), 0.0))
    assert rows[1]["mae"] == pytest.approx(mae(eo, ds.y), abs=1e-12)
    # rerun is bit-identical: no split, no randomness
    again = baseline_table(ds, "outdoor")
    assert again == rows


def test_baseline_table_missing_columns():
    ds = _toy_dataset()
    with pytest.raises(DataError, match="d_m"):
        baseline_table(ds, "indoor")
    with pytest.raises(DataError):
        baseline_table(ds, "nowhere")


# the metrics table -----------------------------------------------------------


def test_table_rows_and_files(tmp_path):
    ds = _toy_dataset()
    rep = monte_carlo_eval(_lsq_fit, ds, runs=4, base_seed=1)
    rows = [metrics_row("lsq", rep, expression="3*a+40", valid="valid"),
            single_row("fixed", {"mae": 1.0, "mse": 2.0, "mape": 3.0,
                                 "r2": 0.5})]
    assert rows[0]["mae_mean"] == rep.mae.mean
    assert rows[1]["mae_std"] == 0.0

    out = tmp_path / "metrics.csv"
    write_table_csv(out, rows)
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("method,mae_mean,mae_std")
    assert len(lines) == 3

    text = format_table(rows)
    assert "lsq" in text and "3*a+40" in text and "[valid]" in text

    sc = tmp_path / "scatter.csv"
    write_scatter_csv(sc, rep.predictions)
    sc_lines = sc.read_text().strip().splitlines()
    assert sc_lines[0] == "run,true_db,predicted_db"
    n_rows = sum(len(p[0]) for p in rep.predictions)
    assert len(sc_lines) == 1 + n_rows


def test_read_table_csv_returns_what_write_table_csv_wrote(tmp_path):
    values = [0.1, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
              2.0 ** 0.5, -12345.678901234567, 1e300]
    fields = [f"{m}_{stat}" for m in METRICS for stat in ("mean", "std")]
    rows = [{"method": f"m{i}", "expression": expression, "valid": valid,
             **{key: values[(i + j) % len(values)]
                for j, key in enumerate(fields)}}
            for i, (expression, valid) in enumerate(
                [("3*a+40", "valid"), ('max(a, "b")', ""), ("", "invalid")]
                * 3)]
    out = tmp_path / "metrics.csv"
    write_table_csv(out, rows)
    got = read_table_csv(out)
    assert len(got) == len(rows)
    for row, want in zip(got, rows):
        for key in ("method", "expression", "valid"):
            assert row[key] == want[key]
        for key in fields:
            assert struct.pack("<d", row[key]) == struct.pack("<d", want[key])

