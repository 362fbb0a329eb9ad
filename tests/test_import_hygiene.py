"""Only train-kan loads scipy, and only train-dsr and train-kan's
symbolic read-out load multiprocessing: importing the CLI and running
any other command (for multiprocessing, train-kan --no-symbolic too)
leaves them out of the process, so those commands do not pay for them
at start-up.  Of scipy, train-kan loads two compiled kernels and none
of the packages around them.  Each check runs in a fresh interpreter."""

import json
import os
import subprocess
import sys

import numpy as np

from autopl.cli import main
from autopl.plmodels import (
    Dataset,
    IndoorParams,
    eval_indoor_empirical,
    write_csv,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

# imports the CLI, then runs each command in turn (on one CPU when a
# second argument is given); prints, for the import and after each
# command, the command's exit code, the scipy modules loaded and whether
# multiprocessing has a module loaded
_RUNNER = """
import json, os, sys

if len(sys.argv) > 2:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

def loaded():
    return [sorted(m for m in sys.modules
                   if m == "scipy" or m.startswith("scipy.")),
            any(m == "multiprocessing" or m.startswith("multiprocessing.")
                for m in sys.modules)]

import autopl.cli
seen = [["import autopl.cli", 0, *loaded()]]
for argv in json.loads(sys.argv[1]):
    code = autopl.cli.main(argv)
    seen.append([" ".join(argv[:3]), code, *loaded()])
print(json.dumps(seen))
"""

LBFGSB, FLAPACK = "scipy.optimize._lbfgsb", "scipy.linalg._flapack"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _run(code, *args):
    done = subprocess.run([sys.executable, "-c", code, *args], env=_env(),
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _loaded_after(commands, one_cpu=False):
    return _run(_RUNNER, json.dumps(commands), *(["1"] if one_cpu else []))


def _indoor_csv(path):
    rng = np.random.default_rng(1)
    X = np.column_stack([rng.uniform(1.0, 50.0, 30),
                         rng.integers(0, 6, 30), rng.integers(0, 3, 30)])
    write_csv(Dataset(("d_m", "n_w", "n_f"), X, eval_indoor_empirical(
        IndoorParams(X[:, 0], X[:, 1], X[:, 2])), "test"), path)


def test_commands_leave_scipy_and_multiprocessing_unloaded(tmp_path):
    # the checkpoint and the DSR run come from this process, which may
    # load either freely
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--model", "ci", "--count", "60", "--seed", "3",
                 "--out", str(data_dir)]) == 0
    data = str(data_dir / "dataset.csv")
    kan_dir = tmp_path / "kan"
    assert main(["train-kan", "--data", data, "--shape", "4,2,1", "--grid",
                 "5", "--steps", "5", "--no-symbolic",
                 "--out", str(kan_dir)]) == 0
    dsr_argv = ["train-dsr", "--data", data, "--samples", "100", "--batch",
                "100", "--min-len", "3"]
    t = str(tmp_path)
    assert main(dsr_argv + ["--out", f"{t}/dsr"]) == 0
    indoor = tmp_path / "indoor.csv"
    _indoor_csv(indoor)

    # train-dsr goes last: it alone may load multiprocessing
    seen = _loaded_after([
        ["gen-data", "--model", "ci", "--count", "60", "--seed", "4",
         "--out", f"{t}/gen"],
        ["eval", "--data", data, "--expr-json", f"{t}/dsr/expression.json",
         "--out", f"{t}/ev"],
        ["eval", "--data", data, "--checkpoint", str(kan_dir / "kan.npz"),
         "--out", f"{t}/ec"],
        ["baseline", "--data", str(indoor), "--which", "indoor",
         "--out", f"{t}/base"],
        ["report", "--runs", f"{t}/base", f"{t}/dsr", "--out", f"{t}/rep"],
        dsr_argv + ["--out", f"{t}/dsr2"],
    ])
    assert len(seen) == 7
    for step, code, scipy, mp in seen:
        assert code == 0, step
        assert not scipy, f"scipy loaded by {step}"
        assert not mp or step.startswith("train-dsr"), \
            f"multiprocessing loaded by {step}"


def _train_kan_commands(tmp_path):
    data = str(tmp_path / "data" / "dataset.csv")
    return [["gen-data", "--model", "ci", "--count", "60", "--seed", "3",
             "--out", str(tmp_path / "data")],
            ["train-kan", "--data", data, "--shape", "4,2,1", "--grid", "5",
             "--steps", "5", "--out", str(tmp_path / "kan")]]


def test_train_kan_loads_scipy(tmp_path):
    seen = _loaded_after(_train_kan_commands(tmp_path))
    assert [(code, scipy, mp) for _, code, scipy, mp in seen[:2]] == [
        (0, [], False), (0, [], False)]
    # the fit and the affine retrain load L-BFGS-B; the read-out's edge
    # fits load LAPACK in whichever process runs them
    _, code, scipy, _ = seen[2]
    assert code == 0
    assert scipy in ([LBFGSB], [FLAPACK, LBFGSB])
    # without the read-out, train-kan starts no worker
    data = str(tmp_path / "data" / "dataset.csv")
    seen = _loaded_after([
        ["train-kan", "--data", data, "--shape", "4,2,1", "--grid", "5",
         "--steps", "5", "--no-symbolic", "--out", str(tmp_path / "plain")],
    ])
    assert [(code, scipy, mp) for _, code, scipy, mp in seen] == [
        (0, [], False), (0, [LBFGSB], False)]


def test_one_cpu_train_kan_loads_lapack_in_process(tmp_path):
    seen = _loaded_after(_train_kan_commands(tmp_path), one_cpu=True)
    assert [(code, scipy) for _, code, scipy, _ in seen] == [
        (0, []), (0, []), (0, [FLAPACK, LBFGSB])]


# loads the two kernels first, then the scipy packages that hold them
_KERNELS_FIRST = """
import json
import numpy as np
from autopl.kan import scipy_kernels

x, fun = scipy_kernels.minimize_lbfgsb(
    lambda x: (float(x @ x), 2.0 * x), np.ones(3), maxiter=50, ftol=1e-12)
dgesdd = scipy_kernels.gesdd()[0]
import scipy.linalg
import scipy.optimize
from scipy.linalg import lapack
res = scipy.optimize.minimize(lambda x: (float(x @ x), 2.0 * x), np.ones(3),
                              jac=True, method="L-BFGS-B",
                              options={"ftol": 1e-12})
s = scipy.linalg.svd(np.arange(6.0).reshape(3, 2), compute_uv=False)
print(json.dumps([x.tobytes() == res.x.tobytes(), fun == res.fun,
                  bool(np.allclose(s, np.linalg.svd(
                      np.arange(6.0).reshape(3, 2), compute_uv=False))),
                  lapack.dgesdd is dgesdd,
                  scipy.optimize._lbfgsb_py._lbfgsb
                  is scipy_kernels._extension("scipy.optimize._lbfgsb")]))
"""

# imports scipy first: the kernels are the modules scipy itself calls
_SCIPY_FIRST = """
import json
import scipy.linalg, scipy.optimize
from autopl.kan import scipy_kernels

print(json.dumps([
    scipy_kernels._extension("scipy.optimize._lbfgsb")
    is scipy.optimize._lbfgsb_py._lbfgsb,
    scipy_kernels._extension("scipy.linalg._flapack")
    is scipy.linalg.lapack._flapack,
    scipy_kernels.gesdd()[0] is scipy.linalg.lapack.dgesdd]))
"""


def test_kernels_then_scipy():
    assert _run(_KERNELS_FIRST) == [True, True, True, True, True]


def test_scipy_then_kernels():
    assert _run(_SCIPY_FIRST) == [True, True, True]
