"""Only train-kan loads scipy, and only train-dsr and train-kan's
symbolic read-out load multiprocessing: importing the CLI and running
any other command (for multiprocessing, train-kan --no-symbolic too)
leaves them out of the process, so those commands do not pay for them
at start-up.  Each check runs in a fresh interpreter."""

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

# imports the CLI, then runs each command in turn; prints, for the import
# and after each command, the command's exit code and which of scipy and
# multiprocessing have a module loaded
_RUNNER = """
import json, sys

def loaded():
    return [any(m == top or m.startswith(top + ".") for m in sys.modules)
            for top in ("scipy", "multiprocessing")]

import autopl.cli
seen = [["import autopl.cli", 0, *loaded()]]
for argv in json.loads(sys.argv[1]):
    code = autopl.cli.main(argv)
    seen.append([" ".join(argv[:3]), code, *loaded()])
print(json.dumps(seen))
"""


def _loaded_after(commands):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", _RUNNER, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


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


def test_train_kan_loads_scipy(tmp_path):
    data = str(tmp_path / "data" / "dataset.csv")
    seen = _loaded_after([
        ["gen-data", "--model", "ci", "--count", "60", "--seed", "3",
         "--out", str(tmp_path / "data")],
        ["train-kan", "--data", data, "--shape", "4,2,1", "--grid", "5",
         "--steps", "5", "--out", str(tmp_path / "kan")],
    ])
    assert [(code, scipy) for _, code, scipy, _ in seen] == [
        (0, False), (0, False), (0, True)]
    # without the read-out, train-kan starts no worker
    seen = _loaded_after([
        ["train-kan", "--data", data, "--shape", "4,2,1", "--grid", "5",
         "--steps", "5", "--no-symbolic", "--out", str(tmp_path / "plain")],
    ])
    assert [(code, scipy, mp) for _, code, scipy, mp in seen] == [
        (0, False, False), (0, True, False)]
