"""Benchmark workloads: inputs made from one workload seed, the timed
operations, and the checks every operation's outputs must pass.

Imported by child.py once the checkout's src/ is first on sys.path.

A workload runs `units` operation units. Unit i of workload seed n uses
trainer seed `first_seed + n * units + i`, so the seeds of different
workload seeds never overlap. Without --seconds a workload runs its
reference configuration; with --seconds S it runs S // nominal_s units
(at least one), so that a run lasts about S seconds on the machine
recorded in README.md.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import autopl.dsr
from autopl import cli
from autopl.dsr import TrainerConfig
from autopl.expr.constraints import ConstraintSet
from autopl.expr.tree import evaluate, to_infix, tree_from_json, tree_to_json
from autopl.plmodels import Dataset, read_csv, split

R2_TOLERANCE = 1e-9
RECOVER_REWARD = 0.999
RECOVER_NRMSE = 1e-3


@dataclass(frozen=True)
class Op:
    """One timed operation: a CLI command or one trainer call.

    `check` turns the call's return value into an outcome dict with keys
    failure (why the operation failed, "" if it did not), wrong (output
    checks that did not hold), quality and formula.
    """
    label: str
    run: Callable[[], object]
    check: Callable[[object], dict]


@dataclass(frozen=True)
class Workload:
    name: str
    first_seed: int
    reference_units: int
    nominal_s: float
    build: Callable[[int, list[int], str], list[Op]]
    summarize: Callable[[list[dict]], dict]

    def units(self, seconds: float | None) -> int:
        if seconds is None:
            return self.reference_units
        return max(1, int(seconds // self.nominal_s))

    def trainer_seeds(self, seed: int, units: int) -> list[int]:
        return [self.first_seed + seed * units + i for i in range(units)]


def outcome(failure="", wrong=(), quality=None, formula="") -> dict:
    return {"failure": failure, "wrong": list(wrong),
            "quality": quality or {}, "formula": formula}


# independent arithmetic ------------------------------------------------------


def r2_score(pred: np.ndarray, y: np.ndarray) -> float:
    return 1.0 - float(np.sum((y - pred) ** 2)) / float(np.sum((y - y.mean()) ** 2))


_UNARY = {"log10": np.log10, "exp": np.exp, "sin": np.sin, "cos": np.cos,
          "square": np.square, "sqrt": np.sqrt}
_BINARY = {"add": np.add, "sub": np.subtract, "mul": np.multiply,
           "div": np.divide}


def eval_prefix_json(text: str, names: tuple[str, ...], X: np.ndarray) -> np.ndarray:
    """Evaluate an expression.json document with plain numpy, binding
    variables by name; shares no code with autopl's evaluator."""
    doc = json.loads(text)
    items = iter(doc["tokens"])
    consts = iter(doc["constants"])

    def node():
        item = next(items)
        if "var" in item:
            return X[:, names.index(item["var"])]
        if "lit" in item:
            return np.full(X.shape[0], float(item["lit"]))
        if "const" in item:
            return np.full(X.shape[0], float(next(consts)))
        if item["kind"] == "binary":
            left = node()
            return _BINARY[item["op"]](left, node())
        return _UNARY[item["op"]](node())

    with np.errstate(all="ignore"):
        return node()


# CLI run directories -----------------------------------------------------------


def _read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _metric_rows(out_dir) -> dict[str, dict]:
    return {r["method"]: r for r in _read_rows(os.path.join(out_dir, "metrics.csv"))}


def _run_dir(code, out_dir) -> tuple[str, list[str]]:
    """Failure and wrong-output findings shared by every CLI command."""
    if code != 0:
        return f"exit code {code}", []
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        listed = json.load(fh)["outputs"]
    wrong = [f"manifest lists {name}, which is missing" for name in listed
             if not os.path.exists(os.path.join(out_dir, name))]
    bad = [f"{m} {k}={v}" for m, row in _metric_rows(out_dir).items()
           for k, v in row.items()
           if k.endswith(("_mean", "_std")) and not math.isfinite(float(v))]
    failure = "non-finite metrics.csv value: " + ", ".join(bad) if bad else ""
    return failure, wrong


def _expression_r2_mismatch(out_dir, data_csv, seed, reported: float) -> list[str]:
    """expression.json, evaluated on the test split the CLI used, must give
    the test R2 that metrics.csv reports."""
    with open(os.path.join(out_dir, "expression.json")) as fh:
        tree = tree_from_json(fh.read())
    # the CLI fans its --seed out this way; the first child seeds the split
    split_seed = int(np.random.SeedSequence(seed).generate_state(2)[0])
    _, test = split(read_csv(data_csv), 0.8, split_seed)
    got = r2_score(evaluate(tree, test.X), test.y)
    if abs(got - reported) <= R2_TOLERANCE:
        return []
    return [f"expression.json gives test R2 {got!r}, metrics.csv says {reported!r}"]


def _formula(out_dir) -> str:
    with open(os.path.join(out_dir, "expressions.txt")) as fh:
        return fh.read().strip()


def _gen_ci_data(work: str, data_seed: int) -> str:
    out = os.path.join(work, "data")
    code = cli.main(["gen-data", "--model", "ci", "--count", "1000",
                     "--seed", str(data_seed), "--out", out])
    if code != 0:
        raise RuntimeError(f"gen-data exited with {code}")
    return os.path.join(out, "dataset.csv")


def _mean(results: list[dict], prefix: str, key: str) -> float:
    """Mean of a quality value over the operations whose label starts with
    prefix; an operation that produced no value scores 0."""
    return float(np.mean([r["quality"].get(key, 0.0) for r in results
                          if r["label"].startswith(prefix)]))


# dsr-ci ------------------------------------------------------------------------


def _dsr_ci(seed: int, trainer_seeds: list[int], work: str) -> list[Op]:
    data = _gen_ci_data(work, 7 + seed)

    def op(s: int) -> Op:
        out = os.path.join(work, f"dsr-{s}")
        argv = ["train-dsr", "--data", data, "--model", "ci", "--policy",
                "rspg", "--seed", str(s), "--out", out]

        def check(code) -> dict:
            failure, wrong = _run_dir(code, out)
            if failure:
                return outcome(failure, wrong)
            r2 = float(_metric_rows(out)["dsr-rspg"]["r2_mean"])
            wrong += _expression_r2_mismatch(out, data, s, r2)
            last = _read_rows(os.path.join(out, "history.csv"))[-1]
            quality = {"best_reward": float(last["best_reward"]), "test_r2": r2}
            return outcome("", wrong, quality, _formula(out))

        return Op(f"train-dsr --seed {s}", lambda: cli.main(argv), check)

    return [op(s) for s in trainer_seeds]


def _summarize_dsr_ci(results: list[dict]) -> dict:
    return {"best_reward": _mean(results, "train-dsr", "best_reward"),
            "test_r2": _mean(results, "train-dsr", "test_r2")}


# kan-ci ------------------------------------------------------------------------


def _kan_ci(seed: int, trainer_seeds: list[int], work: str) -> list[Op]:
    data = _gen_ci_data(work, 7 + seed)
    ops = []
    for s in trainer_seeds:
        out = os.path.join(work, f"kan-{s}")
        ev = os.path.join(work, f"eval-{s}")
        train_argv = ["train-kan", "--data", data, "--model", "ci",
                      "--seed", str(s), "--out", out]
        eval_argv = ["eval", "--data", data, "--checkpoint",
                     os.path.join(out, "kan.npz"), "--runs", "10", "--out", ev]

        def check_train(code, out=out, s=s) -> dict:
            failure, wrong = _run_dir(code, out)
            if code != 0:
                return outcome(failure, wrong)
            rows = _metric_rows(out)
            symbolic = float(rows["kan-symbolic"]["r2_mean"])
            quality = {"spline_r2": float(rows["kan-spline"]["r2_mean"]),
                       # a non-finite read-out scores 0
                       "test_r2": symbolic if math.isfinite(symbolic) else 0.0}
            if not failure:
                wrong += _expression_r2_mismatch(out, data, s, symbolic)
            return outcome(failure, wrong, quality, _formula(out))

        def check_eval(code, ev=ev) -> dict:
            failure, wrong = _run_dir(code, ev)
            if failure:
                return outcome(failure, wrong)
            r2 = float(_metric_rows(ev)["checkpoint"]["r2_mean"])
            return outcome("", wrong, {"eval_r2": r2})

        ops.append(Op(f"train-kan --seed {s}",
                      lambda argv=train_argv: cli.main(argv), check_train))
        ops.append(Op(f"eval --checkpoint kan-{s}",
                      lambda argv=eval_argv: cli.main(argv), check_eval))
    return ops


def _summarize_kan_ci(results: list[dict]) -> dict:
    return {"spline_r2": _mean(results, "train-kan", "spline_r2"),
            "test_r2": _mean(results, "train-kan", "test_r2")}


# dsr-recover -------------------------------------------------------------------


def _dsr_recover(seed: int, trainer_seeds: list[int], work: str) -> list[Op]:
    # criterion 6 of tests/test_acceptance.py: y = x0 + x1 on U[1,10]^2
    X = np.random.default_rng(42 + seed).uniform(1.0, 10.0, (500, 2))
    ds = Dataset(("x0", "x1"), X, X[:, 0] + X[:, 1], "synthetic:sum")
    cs = ConstraintSet(min_length=3)
    # fresh points the search never saw, for the recovery check
    X_check = np.random.default_rng(10_000 + seed).uniform(1.0, 10.0, (2000, 2))
    truth = X_check[:, 0] + X_check[:, 1]

    def op(s: int) -> Op:
        config = TrainerConfig(policy_kind="rspg", batch_size=200,
                               learning_rate=0.002, entropy_weight=0.008,
                               sample_budget=10000,
                               reward_threshold=RECOVER_REWARD, seed=s)

        def check(result) -> dict:
            recovered = result.best_reward >= RECOVER_REWARD
            quality = {"best_reward": result.best_reward,
                       "samples": result.samples_used,
                       "recovered": int(recovered)}
            wrong = []
            if recovered:
                pred = eval_prefix_json(tree_to_json(result.best_tree),
                                        ds.feature_names, X_check)
                err = float(np.sqrt(np.mean((pred - truth) ** 2)) / np.std(truth))
                if not err <= RECOVER_NRMSE:
                    wrong.append(f"recovered formula has NRMSE {err!r} "
                                 f"against x0 + x1")
            return outcome("", wrong, quality, to_infix(result.best_tree))

        return Op(f"dsr.train --seed {s}",
                  lambda: autopl.dsr.train(config, ds, cs), check)

    return [op(s) for s in trainer_seeds]


def _summarize_dsr_recover(results: list[dict]) -> dict:
    return {"best_reward": _mean(results, "dsr.train", "best_reward"),
            "recovered": sum(r["quality"].get("recovered", 0) for r in results),
            "samples_to_solve":
                sum(r["quality"].get("samples", 0) for r in results)}


WORKLOADS = {
    w.name: w for w in (
        Workload("dsr-ci", first_seed=1, reference_units=1, nominal_s=15.0,
                 build=_dsr_ci, summarize=_summarize_dsr_ci),
        Workload("kan-ci", first_seed=0, reference_units=2, nominal_s=36.0,
                 build=_kan_ci, summarize=_summarize_kan_ci),
        Workload("dsr-recover", first_seed=0, reference_units=3,
                 nominal_s=13.0, build=_dsr_recover,
                 summarize=_summarize_dsr_recover),
    )
}
