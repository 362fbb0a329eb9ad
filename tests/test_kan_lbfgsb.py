"""L-BFGS-B without `scipy.optimize`: `minimize_lbfgsb` takes the steps
scipy's `minimize(..., jac=True, method="L-BFGS-B")` takes, with the
same options, bit for bit; and a scipy without the compiled kernels is
an ImportError that names the scipy it needs."""

import importlib.machinery
import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import optimize

from autopl.cli import main
from autopl.kan import KanConfig, build_network, lsq, scipy_kernels, symbolic
from autopl.kan.scipy_kernels import minimize_lbfgsb
from autopl.kan.symbolic import EdgeFit, SymbolicKan
from autopl.kan.train import _loss_and_grad

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _kan_objective():
    """kan.train's objective on a [2, 3, 1] net with an L1 penalty."""
    rng = np.random.default_rng(4)
    X = rng.uniform(-1, 1, (120, 2))
    y = np.sin(2.0 * X[:, 0]) + X[:, 1] ** 2
    y2d = ((y - y.mean()) / y.std())[:, None]
    net = build_network(KanConfig(shape=(2, 3, 1), grid_size=5, steps=1,
                                  reg_lambda=0.005, seed=3))

    def objective(theta):
        net.set_params(theta)
        return _loss_and_grad(net, X, y2d, 0.005)[:2]
    return objective, net.get_params()


def _retrain_objective():
    """retrain_affine's objective on a [3, 2, 1] read-out."""
    rng = np.random.default_rng(9)
    shape = (3, 2, 1)
    names = ["identity", "square", "sin", "cos", "cube"]
    fits = [[[EdgeFit(str(rng.choice(names)), *rng.normal(0.0, 0.5, 4), 1.0)
              for _ in range(d_out)] for _ in range(d_in)]
            for d_in, d_out in zip(shape[:-1], shape[1:])]
    masks = [np.ones((d_in, d_out), dtype=bool)
             for d_in, d_out in zip(shape[:-1], shape[1:])]
    sym = SymbolicKan(shape, fits, masks)
    X = rng.uniform(-1, 1, (150, 3))
    y = np.cos(X[:, 0]) + X[:, 1] * X[:, 2]
    return (lambda theta: symbolic._mse_and_grad(sym, X, y, theta),
            sym.theta)


def _log_barrier_objective():
    """sum(x - 3 log x) from a start whose line searches step to x <= 0,
    where the objective is NaN or infinite."""
    def objective(x):
        with np.errstate(all="ignore"):
            return float(np.sum(x - 3.0 * np.log(x))), 1.0 - 3.0 / x
    return objective, np.array([50.0, 0.5, 7.0])


def _runs(make, options, maxfun=15000):
    """(x bytes, fun, objective calls, callback calls, non-finite values
    scored) of scipy's minimize and of minimize_lbfgsb, each on a fresh
    objective."""
    out = []
    for ours in (False, True):
        objective, x0 = make()
        calls, seen, bad = [], [], []

        def counted(x):
            calls.append(x.copy())
            f, g = objective(x)
            bad.append(not np.isfinite(f))
            return f, g

        def record(x):
            seen.append(x.tobytes())
        if ours:
            x, fun = minimize_lbfgsb(counted, x0, callback=record, **options)
        else:
            res = optimize.minimize(counted, x0, jac=True, method="L-BFGS-B",
                                    callback=record,
                                    options={**options, "maxfun": maxfun})
            x, fun = res.x, res.fun
            assert (res.nfev, res.nit) == (len(calls), len(seen))
        # every point is scored once
        assert all(not np.array_equal(a, b) for a, b in zip(calls, calls[1:]))
        out.append((x.tobytes(), np.float64(fun).tobytes(), len(calls),
                    seen, sum(bad)))
    return out


@pytest.mark.parametrize("make,options", [
    (_kan_objective, {"maxiter": 80, "maxcor": 20, "ftol": 1e-14,
                      "gtol": 1e-12}),
    (_retrain_objective, {"maxiter": 200, "ftol": 1e-14}),
    (_log_barrier_objective, {"maxiter": 15000,
                              "ftol": 2.2204460492503131e-09}),
], ids=["kan-train", "retrain-affine", "non-finite-line-search"])
def test_same_steps_as_scipy(make, options):
    want, got = _runs(make, options)
    assert got == want
    assert len(got[3]) > 0
    # the line searches met NaN and still converged
    assert (got[4] > 0) == (make is _log_barrier_objective)


def test_maxiter_stop_matches_scipy():
    want, got = _runs(_kan_objective, {"maxiter": 7, "maxcor": 20,
                                       "ftol": 1e-14, "gtol": 1e-12})
    assert got == want
    assert len(got[3]) == 7


def test_maxfun_stop_matches_scipy(monkeypatch):
    monkeypatch.setattr(scipy_kernels, "_MAXFUN", 20)
    options = {"maxiter": 15000, "ftol": 2.2204460492503131e-09}
    want, got = _runs(_log_barrier_objective, options, maxfun=20)
    assert got == want
    # the iteration that passes 20 calls is the last
    assert 20 < got[2] < 133


# loads the kernel from its file before scipy is imported, then runs the
# same fit through scipy's minimize
_FRESH = """
import json, sys
import numpy as np
from autopl.kan.scipy_kernels import minimize_lbfgsb

def objective(x):
    with np.errstate(all="ignore"):
        return float(np.sum(x - 3.0 * np.log(x))), 1.0 - 3.0 / x

x, fun = minimize_lbfgsb(objective, np.array([50.0, 0.5, 7.0]),
                         maxiter=15000, ftol=2.2204460492503131e-09)
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
from scipy import optimize
res = optimize.minimize(objective, np.array([50.0, 0.5, 7.0]), jac=True,
                        method="L-BFGS-B")
print(json.dumps([loaded, x.tobytes() == res.x.tobytes(), fun == res.fun]))
"""


def test_same_steps_in_a_fresh_interpreter():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", _FRESH], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [["scipy.optimize._lbfgsb"], True, True]


@pytest.fixture
def scipy_without_kernels(monkeypatch, tmp_path):
    """The kernels not loaded, and scipy's package directory empty."""
    empty = tmp_path / "scipy"
    empty.mkdir()
    for name in ("scipy.optimize._lbfgsb", "scipy.linalg._flapack"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    find_spec = importlib.util.find_spec

    def empty_scipy(name, *args):
        if name != "scipy":
            return find_spec(name, *args)
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [str(empty)]
        return spec
    monkeypatch.setattr(importlib.util, "find_spec", empty_scipy)


def test_missing_kernels_are_an_import_error(tmp_path, scipy_without_kernels):
    data = tmp_path / "data"
    assert main(["gen-data", "--model", "ci", "--count", "60", "--seed", "3",
                 "--out", str(data)]) == 0
    with pytest.raises(ImportError, match=r"scipy 1\.17.*_lbfgsb"):
        main(["train-kan", "--data", str(data / "dataset.csv"), "--shape",
              "4,2,1", "--grid", "5", "--steps", "5", "--no-symbolic",
              "--out", str(tmp_path / "kan")])
    x = np.linspace(0.0, 1.0, 20)
    with pytest.raises(ImportError, match=r"scipy 1\.17.*_flapack"):
        lsq.least_squares(lambda p: p[0] * x - x, lambda p: x[:, None],
                          np.array([2.0]), max_nfev=10)
