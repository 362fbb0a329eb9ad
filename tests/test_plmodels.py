"""Closed-form model values, synthetic generation, and dataset plumbing.

Expected numbers were computed independently with math.log10 from the
model definitions and frozen here.
"""

import math
import os

import numpy as np
import pytest

from autopl.errors import DataError, DomainError
from autopl import plmodels as pl


def test_fspl_1m_reference_values():
    assert pl.fspl_1m(2.45e9) == pytest.approx(40.23110490917403, abs=1e-9)
    assert pl.fspl_1m(28e9) == pytest.approx(61.39094384872776, abs=1e-9)
    assert pl.fspl_1m(868.3e6) == pytest.approx(31.221179242336955, abs=1e-9)


def test_fspl_1m_rejects_non_positive_frequency():
    with pytest.raises(DomainError):
        pl.fspl_1m(0.0)
    with pytest.raises(DomainError):
        pl.fspl_1m(-1e9)


def test_abg_values():
    got = pl.eval_abg(pl.AbgParams(alpha=2.0, beta=-5.0, gamma=1.5, f_ghz=28.0, d_m=100.0))
    assert got == pytest.approx(56.707370470133284, abs=1e-9)
    # at d = 1 m and gamma = 0 only the offset survives
    assert pl.eval_abg(pl.AbgParams(1.0, -1.0, 0.0, 2.0, 1.0)) == pytest.approx(-1.0, abs=1e-12)
    got = pl.eval_abg(pl.AbgParams(0.5, -10.0, 2.0, 73.5, 500.0, chi_db=3.25))
    assert got == pytest.approx(44.07059680336399, abs=1e-9)


def test_ci_values():
    assert pl.eval_ci(pl.CiParams(f_hz=28e9, n=3.0, d_m=100.0)) == pytest.approx(
        121.39094384872776, abs=1e-9)
    # at 1 m the CI model collapses to the free-space anchor
    assert pl.eval_ci(pl.CiParams(2e9, 2.0, 1.0)) == pytest.approx(
        pl.fspl_1m(2e9), abs=1e-12)
    assert pl.eval_ci(pl.CiParams(73.5e9, 6.0, 500.0, chi_db=-2.5)) == pytest.approx(
        229.21173026372838, abs=1e-9)


def test_indoor_empirical_values():
    got = pl.eval_indoor_empirical(pl.IndoorParams(d_m=10.0, n_walls=2, n_floors=2))
    assert got == pytest.approx(169.91236787996561, abs=1e-9)
    got = pl.eval_indoor_empirical(pl.IndoorParams(6.47, 0, 1))
    assert got == pytest.approx(153.51077199905797, abs=1e-9)
    got = pl.eval_indoor_empirical(pl.IndoorParams(105.25, 3, 4))
    assert got == pytest.approx(209.77416634126448, abs=1e-9)


def test_mwf_values():
    assert pl.eval_mwf(pl.IndoorParams(10.0, 2, 2)) == pytest.approx(171.72, abs=1e-9)
    assert pl.eval_mwf(pl.IndoorParams(50.0, 1, 3)) == pytest.approx(
        200.23064512357652, abs=1e-9)


def test_mwf_vs_indoor_empirical_floor_terms():
    # one floor: 1**x == 1, so the two indoor models coincide exactly
    p1 = pl.IndoorParams(20.0, 1, 1)
    assert pl.eval_indoor_empirical(p1) == pytest.approx(pl.eval_mwf(p1), abs=1e-12)
    # two floors: the power-law term 2**0.8633 < 2 makes the empirical
    # fit cheaper than the linear multi-wall-floor accumulation
    p2 = pl.IndoorParams(20.0, 1, 2)
    assert pl.eval_indoor_empirical(p2) < pl.eval_mwf(p2)


def test_outdoor_empirical_values():
    assert pl.eval_outdoor_empirical(pl.OutdoorParams(d_m=100.0, h_ed_m=2.0)) == pytest.approx(
        201.66515902037926, abs=1e-9)
    assert pl.eval_outdoor_empirical(pl.OutdoorParams(27.66, 0.2)) == pytest.approx(
        188.95652838274827, abs=1e-9)
    got = pl.eval_outdoor_empirical(pl.OutdoorParams(170.44, 3.0, x_sigma_db=1.5))
    assert got == pytest.approx(209.56024598404886, abs=1e-9)


def test_fs_values():
    assert pl.eval_fs(900.0, 1.0) == pytest.approx(91.5248501887865, abs=1e-9)
    assert pl.eval_fs(868.3, 0.1) == pytest.approx(71.21339602045359, abs=1e-9)


def test_domain_errors():
    with pytest.raises(DomainError):
        pl.eval_abg(pl.AbgParams(1.0, -5.0, 1.0, 28.0, 0.0))
    with pytest.raises(DomainError):
        pl.eval_abg(pl.AbgParams(1.0, -5.0, 1.0, -2.0, 10.0))
    with pytest.raises(DomainError):
        pl.eval_ci(pl.CiParams(28e9, 3.0, -1.0))
    with pytest.raises(DomainError):
        pl.eval_indoor_empirical(pl.IndoorParams(10.0, -1, 0))
    with pytest.raises(DomainError):
        pl.eval_outdoor_empirical(pl.OutdoorParams(10.0, 0.0))
    with pytest.raises(DomainError):
        pl.eval_fs(-900.0, 1.0)


def test_eval_accepts_arrays():
    d = np.array([1.0, 10.0, 100.0])
    got = pl.eval_ci(pl.CiParams(f_hz=28e9, n=2.0, d_m=d))
    assert got.shape == (3,)
    # each decade adds 10*n dB
    assert got[1] - got[0] == pytest.approx(20.0, abs=1e-9)
    assert got[2] - got[1] == pytest.approx(20.0, abs=1e-9)


# ---------------------------------------------------------------------------
# synthetic generation


def test_generate_synthetic_abg_shape_and_ranges():
    ds = pl.generate_synthetic(pl.SyntheticSpec("abg", count=500, seed=7))
    assert ds.feature_names == ("alpha", "beta", "gamma", "f_ghz", "d_m", "chi_db")
    assert ds.X.shape == (500, 6)
    assert ds.y.shape == (500,)
    for name, (lo, hi) in pl.ABG_RANGES.items():
        if name == "sigma_db":
            continue
        col = ds.column(name)
        assert np.all(col >= lo) and np.all(col <= hi)
    # targets reproduce the closed form exactly
    want = pl.eval_abg(pl.AbgParams(ds.column("alpha"), ds.column("beta"),
                                    ds.column("gamma"), ds.column("f_ghz"),
                                    ds.column("d_m"), ds.column("chi_db")))
    assert np.allclose(ds.y, want, atol=0.0)


def test_generate_synthetic_ci_frequency_in_hz():
    ds = pl.generate_synthetic(pl.SyntheticSpec("ci", count=300, seed=3))
    assert ds.feature_names == ("f_hz", "n", "d_m", "chi_db")
    f = ds.column("f_hz")
    assert np.all(f >= 2e9) and np.all(f <= 73.5e9)
    want = pl.eval_ci(pl.CiParams(f, ds.column("n"), ds.column("d_m"),
                                  ds.column("chi_db")))
    assert np.allclose(ds.y, want, atol=0.0)


def test_generate_synthetic_deterministic():
    a = pl.generate_synthetic(pl.SyntheticSpec("abg", count=64, seed=11))
    b = pl.generate_synthetic(pl.SyntheticSpec("abg", count=64, seed=11))
    c = pl.generate_synthetic(pl.SyntheticSpec("abg", count=64, seed=12))
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    assert not np.array_equal(a.X, c.X)


def test_generate_synthetic_shadow_scale():
    # chi realizations should reflect sigma in [4, 12]: population std of
    # chi across many rows lands between the bounds
    ds = pl.generate_synthetic(pl.SyntheticSpec("abg", count=4000, seed=5))
    s = float(np.std(ds.column("chi_db")))
    assert 4.0 < s < 12.0


def test_generate_synthetic_rejects_bad_spec():
    with pytest.raises(DomainError):
        pl.generate_synthetic(pl.SyntheticSpec("nope"))
    with pytest.raises(DomainError):
        pl.generate_synthetic(pl.SyntheticSpec("abg", count=0))


# ---------------------------------------------------------------------------
# Dataset invariants, normalization, split, CSV round-trip


def _toy_dataset():
    X = np.array([[1.0, -10.0], [2.0, -5.0], [4.0, -1.0]])
    y = np.array([10.0, 20.0, 30.0])
    return pl.Dataset(("a", "b"), X, y, provenance="test")


def test_dataset_validation():
    with pytest.raises(DataError):
        pl.Dataset(("a",), np.zeros((3, 2)), np.zeros(3), "p")
    with pytest.raises(DataError):
        pl.Dataset(("a", "a"), np.zeros((3, 2)), np.zeros(3), "p")
    with pytest.raises(DataError):
        pl.Dataset(("a", "b"), np.zeros((3, 2)), np.zeros(4), "p")
    X = np.zeros((2, 2))
    X[0, 0] = np.inf
    with pytest.raises(DataError):
        pl.Dataset(("a", "b"), X, np.zeros(2), "p")
    with pytest.raises(DataError):
        pl.Dataset(("a", "b"), np.zeros((2, 2)), np.array([0.0, np.nan]), "p")


def test_normalize_max_positive_column():
    ds = pl.normalize_max(_toy_dataset())
    assert np.allclose(ds.column("a"), [0.25, 0.5, 1.0])
    assert pl.max_abs(_toy_dataset())[0] == 4.0


def test_normalize_max_negative_column_uses_magnitude():
    ds = pl.normalize_max(_toy_dataset())
    # divisor is the largest magnitude, so signs survive and the column
    # stays inside [-1, 1]
    assert pl.max_abs(_toy_dataset())[1] == 10.0
    assert np.allclose(ds.column("b"), [-1.0, -0.5, -0.1])


def test_normalize_max_idempotent_and_target_untouched():
    base = _toy_dataset()
    once = pl.normalize_max(base)
    twice = pl.normalize_max(once)
    assert np.allclose(once.X, twice.X)
    assert np.array_equal(base.y, once.y)


def test_normalize_max_zero_column_errors_with_name():
    X = np.array([[0.0, 1.0], [0.0, 2.0]])
    ds = pl.Dataset(("zcol", "b"), X, np.zeros(2), "p")
    with pytest.raises(DataError, match="zcol"):
        pl.normalize_max(ds)


def test_split_sizes_and_determinism():
    ds = pl.generate_synthetic(pl.SyntheticSpec("abg", count=101, seed=1))
    tr, te = pl.split(ds, 0.8, seed=4)
    assert tr.n_rows == math.ceil(0.8 * 101)
    assert tr.n_rows + te.n_rows == 101
    tr2, te2 = pl.split(ds, 0.8, seed=4)
    assert np.array_equal(tr.X, tr2.X) and np.array_equal(te.y, te2.y)
    tr3, _ = pl.split(ds, 0.8, seed=5)
    assert not np.array_equal(tr.X, tr3.X)
    # rows are partitioned, nothing lost or duplicated
    merged = np.sort(np.concatenate([tr.y, te.y]))
    assert np.array_equal(merged, np.sort(ds.y))


def test_split_rejects_bad_fraction():
    ds = _toy_dataset()
    for frac in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(DomainError):
            pl.split(ds, frac, seed=0)
    with pytest.raises(DataError):
        pl.split(ds, 0.99, seed=0)  # ceil(2.97) = 3 leaves no test rows


def test_csv_round_trip(tmp_path):
    ds = pl.normalize_max(pl.generate_synthetic(pl.SyntheticSpec("ci", count=40, seed=9)))
    path = tmp_path / "ds.csv"
    pl.write_csv(ds, path)
    back = pl.read_csv(path)
    assert back.feature_names == ds.feature_names
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.y, ds.y)
    # no divisors are persisted: a file holds its values as written
    assert os.listdir(tmp_path) == ["ds.csv"]


def test_load_empirical_csv(tmp_path):
    # every column but the target is a feature, in file order
    path = tmp_path / "meas.csv"
    path.write_text(
        "dist,pl,floors,rssi\n"
        "10.0,120.5,1,-80\n"
        "20.0,not_a_number,2,-90\n"
        "30.0,140.0,,-95\n"
        "40.0,inf,3,-99\n"
        "50.0,150.25,1,-70\n")
    ds, report = pl.load_empirical_csv(path, "pl")
    assert report.total_rows == 5
    assert report.kept_rows == 2 and report.dropped_rows == 3
    assert ds.feature_names == ("dist", "floors", "rssi")
    assert np.allclose(ds.X, [[10.0, 1.0, -80.0], [50.0, 1.0, -70.0]])
    assert np.allclose(ds.y, [120.5, 150.25])


def test_load_empirical_csv_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        pl.load_empirical_csv(tmp_path / "missing.csv", "pl")
    path = tmp_path / "m.csv"
    path.write_text("a,pl\n1.0,2.0\n")
    with pytest.raises(DataError, match="target column 'zz' not in input"):
        pl.load_empirical_csv(path, "zz")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError, match="no header"):
        pl.load_empirical_csv(empty, "pl")
    alone = tmp_path / "alone.csv"
    alone.write_text("pl\n1.0\n")
    with pytest.raises(DataError, match="no column besides 'pl'"):
        pl.load_empirical_csv(alone, "pl")
    bad = tmp_path / "allbad.csv"
    bad.write_text("a,pl\nx,1.0\n2.0,nan\n")
    with pytest.raises(DataError):
        pl.load_empirical_csv(bad, "pl")
