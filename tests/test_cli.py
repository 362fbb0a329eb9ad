import csv
import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from autopl import cli
from autopl.cli import _fan_out, main
from autopl.dsr import TrainerConfig, train as dsr_train
from autopl.evalharness import r2
from autopl.expr.constraints import ConstraintSet
from autopl.expr.tokens import Token
from autopl.expr.tree import (
    ExpressionTree,
    evaluate,
    tree_from_json,
    tree_to_json,
)
from autopl.kan import KanConfig, auto_symbolic, load_kan
from autopl.plmodels import (
    Dataset,
    IndoorParams,
    SyntheticSpec,
    eval_indoor_empirical,
    max_abs,
    normalize_max,
    read_csv,
    split,
    write_csv,
)


def _sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def _gen(tmp_path, name, model="ci", count=120, seed=3):
    out = tmp_path / name
    rc = main(["gen-data", "--model", model, "--count", str(count),
               "--seed", str(seed), "--out", str(out)])
    assert rc == 0
    return out / "dataset.csv"


def _read_metrics(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_gen_data_synthetic(tmp_path):
    out = tmp_path / "abg"
    rc = main(["gen-data", "--model", "abg", "--count", "1000",
               "--seed", "7", "--out", str(out)])
    assert rc == 0
    ds = read_csv(out / "dataset.csv")
    assert ds.n_rows == 1000
    assert len(ds.feature_names) == 6
    # rerun lands byte-identical primary output
    out2 = tmp_path / "abg2"
    main(["gen-data", "--model", "abg", "--count", "1000", "--seed", "7",
          "--out", str(out2)])
    assert _sha(out / "dataset.csv") == _sha(out2 / "dataset.csv")


def test_gen_data_normalize_is_a_usage_error(tmp_path, capsys):
    # datasets are always written in original units
    out = tmp_path / "norm"
    rc = main(["gen-data", "--model", "ci", "--count", "50", "--seed", "0",
               "--normalize", "--out", str(out)])
    assert rc == 1
    assert "--normalize" in capsys.readouterr().err
    assert not out.exists()


def _legacy_normalized_csv(tmp_path, data):
    """The dataset at `data` as earlier versions' `gen-data --normalize`
    wrote it: max-normalized columns plus their divisors in a sidecar."""
    ds = read_csv(data)
    scaled, div = normalize_max(ds), max_abs(ds)
    path = tmp_path / "legacy.csv"
    write_csv(scaled, path)
    with open(f"{path}.norm.json", "w") as fh:
        json.dump(dict(zip(ds.feature_names, div.tolist())), fh, indent=1,
                  sort_keys=True)
    return path, scaled, div


def test_gen_data_ingest(tmp_path):
    src = tmp_path / "meas.csv"
    with open(src, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["d_m", "n_w", "pl"])
        for i in range(10):
            w.writerow([1.0 + i, i % 3, 60.0 + 2 * i])
    out = tmp_path / "ing"
    rc = main(["gen-data", "--input", str(src), "--target", "pl",
               "--out", str(out)])
    assert rc == 0
    ds = read_csv(out / "dataset.csv")
    assert ds.feature_names == ("d_m", "n_w")
    assert ds.n_rows == 10


def test_gen_data_usage_errors(tmp_path, capsys):
    rc = main(["gen-data", "--out", str(tmp_path / "x")])
    assert rc == 1
    rc = main(["gen-data", "--model", "abg", "--input", "a.csv",
               "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") or "error: " in err


def test_train_kan_pipeline(tmp_path):
    data = _gen(tmp_path, "ci")
    before = _sha(data)
    out = tmp_path / "kan"
    rc = main(["train-kan", "--data", str(data), "--model", "ci",
               "--shape", "4,2,1", "--grid", "5", "--steps", "8",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert _sha(data) == before  # inputs never mutated
    for name in ("manifest.json", "metrics.csv", "expressions.txt",
                 "history.csv", "graph.csv", "scatter.csv", "kan.npz",
                 "expression.json"):
        assert (out / name).exists(), name
    rows = _read_metrics(out / "metrics.csv")
    assert [r["method"] for r in rows] == ["kan-spline", "kan-symbolic"]
    assert rows[1]["expression"]
    manifest = json.load(open(out / "manifest.json"))
    assert manifest["command"] == "train-kan"
    assert manifest["inputs"][str(data)] == before
    assert "metrics.csv" in manifest["outputs"]
    # extracted tree evaluates on original-unit features
    tree = tree_from_json((out / "expression.json").read_text())
    ds = read_csv(data)
    pred = evaluate(tree, ds.X)
    assert np.all(np.isfinite(pred))
    # history carries the optimizer trace
    hist = _read_metrics(out / "history.csv")
    assert hist and set(hist[0]) == {"step", "mse", "reg", "loss"}


def test_train_kan_prune_checkpoint_matches_outputs(tmp_path):
    data = _gen(tmp_path, "ci")
    out = tmp_path / "kp"
    rc = main(["train-kan", "--data", str(data), "--shape", "4,2,1",
               "--grid", "5", "--steps", "25", "--prune", "0.1",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    net = load_kan(out / "kan.npz")
    ds = read_csv(data)
    train_ds, test_ds = split(ds, 0.8, _fan_out(1, 2)[0])
    # the graph's family and r2 columns are the read-out of the saved
    # net on the CLI's training split, edge for edge; pruned edges read
    # zero
    fits = auto_symbolic(net, train_ds.X).fits
    graph = _read_metrics(out / "graph.csv")
    assert any(row["active"] == "0" for row in graph)
    for row in graph:
        layer, i, j = (int(row[k]) for k in ("layer", "in_node", "out_node"))
        active = net.layers[layer].prune_mask[i, j]
        assert active == bool(int(row["active"]))
        fit = fits[layer][i][j]
        assert (row["family"], row["r2"]) == (fit.name, f"{fit.r2:.6f}")
        assert active or row["family"] == "zero"
    # the checkpoint reproduces the kan-spline row on the CLI's test split
    # of the dataset as read
    spline = _read_metrics(out / "metrics.csv")[0]
    assert spline["method"] == "kan-spline"
    assert float(spline["r2_mean"]) == r2(net.predict(test_ds.X), test_ds.y)


def test_train_kan_no_symbolic(tmp_path):
    data = _gen(tmp_path, "ci", count=80)
    out = tmp_path / "kan_ns"
    rc = main(["train-kan", "--data", str(data), "--shape", "4,2,1",
               "--grid", "5", "--steps", "5", "--no-symbolic",
               "--out", str(out)])
    assert rc == 0
    rows = _read_metrics(out / "metrics.csv")
    assert [r["method"] for r in rows] == ["kan-spline"]
    assert not (out / "expression.json").exists()


def test_train_kan_shape_mismatch(tmp_path, capsys):
    data = _gen(tmp_path, "ci", count=40)
    rc = main(["train-kan", "--data", str(data), "--shape", "7,1",
               "--steps", "5", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_train_kan_constant_target_exit3(tmp_path):
    X = np.random.default_rng(0).uniform(1.0, 2.0, (30, 2))
    ds = Dataset(("a", "b"), X, np.full(30, 5.0), "test")
    path = tmp_path / "const.csv"
    write_csv(ds, path)
    rc = main(["train-kan", "--data", str(path), "--shape", "2,1",
               "--steps", "5", "--out", str(tmp_path / "x")])
    assert rc == 3


def test_train_dsr_run(tmp_path):
    data = _gen(tmp_path, "ci", count=100)
    out = tmp_path / "dsr"
    args = ["train-dsr", "--data", str(data), "--policy", "rspg",
            "--samples", "200", "--batch", "100", "--min-len", "3",
            "--seed", "5", "--out", str(out)]
    rc = main(args)
    assert rc == 0
    hist_path = out / "history.csv"
    with open(hist_path, newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["step", "best_reward", "mean_reward",
                                     "best_expression_infix"]
        hist = list(reader)
    best = [float(r["best_reward"]) for r in hist]
    assert best == sorted(best)
    tree = tree_from_json((out / "expression.json").read_text())
    assert tree.tokens
    # same command, same bytes out
    out2 = tmp_path / "dsr2"
    main(args[:-1] + [str(out2)])
    assert _sha(hist_path) == _sha(out2 / "history.csv")


def test_eval_expression_and_baselines(tmp_path):
    # the analytical baselines come from `baseline`, collated with the
    # expression's row by `report`
    rng = np.random.default_rng(5)
    n = 80
    d = rng.uniform(1.0, 50.0, n)
    nw = rng.integers(0, 6, n).astype(float)
    nf = rng.integers(0, 3, n).astype(float)
    y = eval_indoor_empirical(IndoorParams(d, nw, nf)) + rng.normal(0, 2, n)
    ds = Dataset(("d_m", "n_w", "n_f"), np.column_stack([d, nw, nf]), y,
                 "test")
    data = tmp_path / "indoor.csv"
    write_csv(ds, data)

    dsr_out = tmp_path / "d"
    main(["train-dsr", "--data", str(data), "--samples", "100",
          "--batch", "100", "--min-len", "3", "--out", str(dsr_out)])

    out = tmp_path / "ev"
    rc = main(["eval", "--data", str(data),
               "--expr-json", str(dsr_out / "expression.json"),
               "--runs", "3", "--out", str(out)])
    assert rc == 0
    base = tmp_path / "base"
    assert main(["baseline", "--data", str(data), "--which", "indoor",
                 "--out", str(base)]) == 0
    rep = tmp_path / "rep"
    assert main(["report", "--runs", str(out), str(base),
                 "--out", str(rep)]) == 0
    rows = _read_metrics(rep / "metrics.csv")
    assert [r["method"] for r in rows] == ["expression", "mwf",
                                           "indoor-empirical"]
    assert float(rows[1]["mae_std"]) == 0.0
    sc = (out / "scatter.csv").read_text().splitlines()
    assert sc[0] == "run,true_db,predicted_db"
    assert len(sc) > 3


def test_eval_with_baselines_is_gone(tmp_path, capsys):
    data = _gen(tmp_path, "ci", count=40)
    expr = tmp_path / "expr.json"
    i = read_csv(data).feature_names.index("d_m")
    expr.write_text(tree_to_json(ExpressionTree((Token.variable("d_m", i),))))
    argv = ["eval", "--data", str(data), "--expr-json", str(expr),
            "--out", str(tmp_path / "x")]
    capsys.readouterr()
    assert main(argv + ["--with-baselines", "indoor"]) == 1
    assert "--with-baselines" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"with_baselines": "indoor"}))
    assert main(argv + ["--config", str(cfg)]) == 1
    assert "with_baselines" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_eval_checkpoint_single_shot(tmp_path):
    data = _gen(tmp_path, "ci", count=80)
    kan_out = tmp_path / "k"
    main(["train-kan", "--data", str(data), "--shape", "4,2,1",
          "--grid", "5", "--steps", "5", "--no-symbolic",
          "--out", str(kan_out)])
    out = tmp_path / "ev"
    rc = main(["eval", "--data", str(data),
               "--checkpoint", str(kan_out / "kan.npz"),
               "--runs", "1", "--out", str(out)])
    assert rc == 0
    rows = _read_metrics(out / "metrics.csv")
    assert rows[0]["method"] == "checkpoint"
    assert rows[0]["expression"] == ""


def test_eval_checkpoint_raw_units(tmp_path):
    # the net scales its raw inputs itself: its checkpoint is the one
    # file eval needs to feed it original-unit datasets
    data = _gen(tmp_path, "ci", count=80)
    kan_out = tmp_path / "k"
    main(["train-kan", "--data", str(data), "--shape", "4,2,1",
          "--grid", "5", "--steps", "25", "--no-symbolic",
          "--out", str(kan_out)])
    assert not (kan_out / "kan.npz.norm.json").exists()
    manifest = json.loads((kan_out / "manifest.json").read_text())
    assert [f for f in manifest["outputs"] if f.startswith("kan")] == \
        ["kan.npz"]

    out_raw = tmp_path / "er"
    rc = main(["eval", "--data", str(data),
               "--checkpoint", str(kan_out / "kan.npz"),
               "--out", str(out_raw)])
    assert rc == 0
    r2 = float(_read_metrics(out_raw / "metrics.csv")[0]["r2_mean"])
    assert r2 > 0.5


@pytest.mark.parametrize("command", [
    ["train-kan", "--model", "ci", "--steps", "30"],
    ["train-dsr", "--samples", "200", "--batch", "100", "--seed", "1"],
    ["eval", "--expr-json", "expr.json"],
], ids=["train-kan", "train-dsr", "eval"])
def test_legacy_normalized_csv_is_refused(tmp_path, capsys, command,
                                          monkeypatch):
    # read as is, its columns would be in normalized units: no command
    # takes it, each names the sidecar and leaves no run directory
    monkeypatch.chdir(tmp_path)
    data = _gen(tmp_path, "ci", count=60)
    legacy, *_ = _legacy_normalized_csv(tmp_path, data)
    (tmp_path / "expr.json").write_text(
        tree_to_json(ExpressionTree((Token.variable("f_hz", 0),))))
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([command[0], "--data", str(legacy), *command[1:],
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"sidecar {legacy}.norm.json" in err
    assert "regenerate the dataset" in err
    assert not out.exists()


def test_eval_expression_rejects_reordered_columns(tmp_path, capsys):
    data = _gen(tmp_path, "ci", count=60)
    ds = read_csv(data)
    names = ds.feature_names
    i, j = names.index("d_m"), names.index("f_hz")
    expr = tmp_path / "expr.json"
    expr.write_text(tree_to_json(ExpressionTree((
        Token.binary("add"), Token.variable("d_m", i),
        Token.variable("f_hz", j)))))
    argv = ["eval", "--expr-json", str(expr)]
    assert main(argv + ["--data", str(data),
                        "--out", str(tmp_path / "ok")]) == 0
    order = list(range(len(names)))
    order[i], order[j] = j, i
    swapped = tmp_path / "swapped.csv"
    write_csv(Dataset(tuple(names[k] for k in order), ds.X[:, order], ds.y,
                      "test"), swapped)
    capsys.readouterr()
    rc = main(argv + ["--data", str(swapped), "--out", str(tmp_path / "sw")])
    assert rc == 2
    assert "'d_m'" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def test_eval_checkpoint_rejects_reordered_columns(tmp_path, capsys):
    data = _gen(tmp_path, "ci", count=60)
    kan_out = tmp_path / "k"
    assert main(["train-kan", "--data", str(data), "--shape", "4,2,1",
                 "--grid", "5", "--steps", "5", "--no-symbolic",
                 "--out", str(kan_out)]) == 0
    ds = read_csv(data)
    names = ds.feature_names
    checkpoint = kan_out / "kan.npz"
    assert json.loads(checkpoint.read_text())["features"] == list(names)
    i, j = names.index("d_m"), names.index("f_hz")
    order = list(range(len(names)))
    order[i], order[j] = j, i
    swapped = tmp_path / "swapped.csv"
    write_csv(Dataset(tuple(names[k] for k in order), ds.X[:, order], ds.y,
                      "test"), swapped)
    argv = ["eval", "--data", str(swapped), "--checkpoint"]
    capsys.readouterr()
    assert main(argv + [str(checkpoint), "--out", str(tmp_path / "sw")]) == 2
    assert "f_hz" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()
    # a checkpoint without names loads as before, whatever the order
    doc = json.loads(checkpoint.read_text())
    del doc["features"]
    unnamed = tmp_path / "unnamed.json"
    unnamed.write_text(json.dumps(doc))
    assert main(argv + [str(unnamed), "--out", str(tmp_path / "un")]) == 0


def test_eval_usage(tmp_path):
    data = _gen(tmp_path, "ci", count=40)
    assert main(["eval", "--data", str(data),
                 "--out", str(tmp_path / "x")]) == 1


def test_baseline_missing_columns(tmp_path):
    data = _gen(tmp_path, "ci", count=40)
    rc = main(["baseline", "--data", str(data), "--which", "indoor",
               "--out", str(tmp_path / "x")])
    assert rc == 2


def test_report_collates(tmp_path):
    rng = np.random.default_rng(5)
    n = 60
    d = rng.uniform(1.0, 50.0, n)
    nw = rng.integers(0, 6, n).astype(float)
    nf = rng.integers(0, 3, n).astype(float)
    y = eval_indoor_empirical(IndoorParams(d, nw, nf))
    ds = Dataset(("d_m", "n_w", "n_f"), np.column_stack([d, nw, nf]), y,
                 "test")
    data = tmp_path / "indoor.csv"
    write_csv(ds, data)
    b1 = tmp_path / "b1"
    main(["baseline", "--data", str(data), "--which", "indoor",
          "--out", str(b1)])
    out = tmp_path / "rep"
    rc = main(["report", "--runs", str(b1), str(b1), "--out", str(out)])
    assert rc == 0
    rows = _read_metrics(out / "metrics.csv")
    assert len(rows) == 4  # two rows per source dir


def test_config_file_precedence(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"count": 55}))
    out = tmp_path / "a"
    main(["gen-data", "--model", "ci", "--config", str(cfg_path),
          "--out", str(out)])
    assert read_csv(out / "dataset.csv").n_rows == 55
    out2 = tmp_path / "b"
    main(["gen-data", "--model", "ci", "--config", str(cfg_path),
          "--count", "70", "--out", str(out2)])
    assert read_csv(out2 / "dataset.csv").n_rows == 70


def test_config_file_unknown_key_is_a_usage_error(tmp_path, capsys):
    data = _gen(tmp_path, "ci", count=40)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"samples": 100, "sampels": 5,
                                    "threads": 2}))
    rc = main(["train-dsr", "--data", str(data), "--batch", "100",
               "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "sampels" in err and "threads" in err
    assert not (tmp_path / "x").exists()


def test_threads_env_fallback(tmp_path, monkeypatch):
    # the old AUTOPL_THREADS variable is inert: it sizes nothing
    data = _gen(tmp_path, "ci", count=60)
    argv = ["train-dsr", "--data", str(data), "--samples", "100",
            "--batch", "100", "--min-len", "3"]
    assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
    monkeypatch.setenv("AUTOPL_THREADS", "2")
    out = tmp_path / "t"
    assert main(argv + ["--out", str(out)]) == 0
    manifest = json.load(open(out / "manifest.json"))
    assert "threads" not in manifest["config"]
    assert (out / "expression.json").read_bytes() == \
        (tmp_path / "plain" / "expression.json").read_bytes()


def test_threads_flag_is_a_usage_error(tmp_path, capsys):
    data = _gen(tmp_path, "ci", count=40)
    rc = main(["train-dsr", "--data", str(data), "--samples", "100",
               "--batch", "100", "--min-len", "3", "--threads", "2",
               "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_manifest_is_single_and_complete(tmp_path):
    out = tmp_path / "m"
    main(["gen-data", "--model", "ci", "--count", "30", "--out", str(out)])
    manifests = [p for p in os.listdir(out) if "manifest" in p]
    assert manifests == ["manifest.json"]
    m = json.load(open(out / "manifest.json"))
    for key in ("command", "config", "seed", "inputs", "tool_version",
                "started_utc", "finished_utc", "outputs"):
        assert key in m
    assert m["tool_version"]
    assert m["outputs"] == ["dataset.csv"]


def test_manifest_lists_exactly_the_run_files(tmp_path):
    def check(out, inputs):
        m = json.load(open(out / "manifest.json"))
        assert set(os.listdir(out)) - {"manifest.json"} == set(m["outputs"])
        assert set(m["inputs"]) == {str(p) for p in inputs}

    data = _gen(tmp_path, "ci", count=60)
    check(data.parent, [])
    for name, extra in (("kan", []), ("kan_ns", ["--no-symbolic"])):
        assert main(["train-kan", "--data", str(data), "--shape", "4,2,1",
                     "--grid", "5", "--steps", "5", "--out",
                     str(tmp_path / name)] + extra) == 0
        check(tmp_path / name, [data])
    dsr = tmp_path / "dsr"
    assert main(["train-dsr", "--data", str(data), "--samples", "100",
                 "--batch", "100", "--min-len", "3", "--out", str(dsr)]) == 0
    check(dsr, [data])
    expr = dsr / "expression.json"
    assert main(["eval", "--data", str(data), "--expr-json", str(expr),
                 "--out", str(tmp_path / "ev")]) == 0
    check(tmp_path / "ev", [data, expr])
    ckpt = tmp_path / "kan_ns" / "kan.npz"
    assert main(["eval", "--data", str(data),
                 "--checkpoint", str(ckpt), "--out", str(tmp_path / "ec")]) == 0
    check(tmp_path / "ec", [data, ckpt])

    rng = np.random.default_rng(1)
    X = np.column_stack([rng.uniform(1.0, 50.0, 30),
                         rng.integers(0, 6, 30), rng.integers(0, 3, 30)])
    indoor = tmp_path / "indoor.csv"
    write_csv(Dataset(("d_m", "n_w", "n_f"), X, eval_indoor_empirical(
        IndoorParams(X[:, 0], X[:, 1], X[:, 2])), "test"), indoor)
    base = tmp_path / "base"
    assert main(["baseline", "--data", str(indoor), "--which", "indoor",
                 "--out", str(base)]) == 0
    check(base, [indoor])
    rep = tmp_path / "rep"
    assert main(["report", "--runs", str(base), str(dsr),
                 "--out", str(rep)]) == 0
    check(rep, [base / "metrics.csv", dsr / "metrics.csv"])


@pytest.mark.parametrize("runs", ["0", "-3"])
def test_eval_rejects_runs_below_one(tmp_path, capsys, runs):
    data = _gen(tmp_path, "ci", count=40)
    expr = tmp_path / "expr.json"
    i = read_csv(data).feature_names.index("d_m")
    expr.write_text(tree_to_json(ExpressionTree((Token.variable("d_m", i),))))
    capsys.readouterr()
    out = tmp_path / "ev"
    rc = main(["eval", "--data", str(data), "--expr-json", str(expr),
               "--runs", runs, "--out", str(out)])
    assert rc == 1
    assert "--runs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad_row, message", [
    ("1.0,2.0", "2 cells, the header has 3"),
    ("1.0,abc,3.0", "'abc'"),
], ids=["short-row", "non-numeric"])
def test_malformed_dataset_csv_is_a_data_error(tmp_path, capsys, bad_row,
                                               message):
    data = tmp_path / "bad.csv"
    data.write_text(f"d_m,f_hz,pl_db\n1.0,2.0,3.0\n{bad_row}\n4.0,5.0,6.0\n")
    out = tmp_path / "base"
    rc = main(["baseline", "--data", str(data), "--which", "outdoor",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{data}, line 3" in err
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    '{"tokens": [',
    '{"tokens": [{"var": "d_m"}]}',
    '{"tokens": [{"op": "tan", "kind": "unary"}, {"var": "d_m", "i": 0}]}',
    '{"tokens": [{"lit": Infinity}]}',
    '{"tokens": [{"lit": 1e400}]}',
    '{"tokens": ["x"]}',
    '{"tokens": [{"var": "f_hz", "i": 0.7}]}',
    '{"tokens": [{"var": "f_hz", "i": true}]}',
], ids=["invalid-json", "var-without-index", "unknown-operator",
        "infinite-literal", "overflowing-literal", "token-not-an-object",
        "fractional-index", "boolean-index"])
def test_malformed_expression_file_is_a_data_error(tmp_path, capsys, text):
    data = _gen(tmp_path, "ci", count=40)
    expr = tmp_path / "expr.json"
    expr.write_text(text)
    capsys.readouterr()
    out = tmp_path / "ev"
    rc = main(["eval", "--data", str(data), "--expr-json", str(expr),
               "--out", str(out)])
    assert rc == 2
    assert f"malformed expression file {expr}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ["{bad", "[1.0]", '{"f_hz": "x"}'],
                         ids=["dataset-invalid-json", "dataset-not-an-object",
                              "dataset-not-a-number"])
def test_malformed_norm_sidecar_is_a_data_error(tmp_path, capsys, text):
    # a dataset's sidecar from an earlier version is refused unread
    data = _gen(tmp_path, "ci", count=50)
    sidecar = f"{data}.norm.json"
    (tmp_path / "expr.json").write_text(
        tree_to_json(ExpressionTree((Token.variable("f_hz", 0),))))
    with open(sidecar, "w") as fh:
        fh.write(text)
    capsys.readouterr()
    out = tmp_path / "ev"
    rc = main(["eval", "--data", str(data), "--expr-json",
               str(tmp_path / "expr.json"), "--out", str(out)])
    assert rc == 2
    assert f"sidecar {sidecar} from an earlier version" in \
        capsys.readouterr().err
    assert not out.exists()


def test_copied_checkpoint_scores_as_in_place(tmp_path):
    # the checkpoint carries its input scale: copied alone elsewhere, it
    # scores the same bytes as in its run directory
    data = _gen(tmp_path, "ci", count=300)
    kan_out = tmp_path / "k"
    assert main(["train-kan", "--data", str(data), "--model", "ci",
                 "--steps", "30", "--no-symbolic", "--out", str(kan_out)]) == 0
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    shutil.copy(kan_out / "kan.npz", elsewhere / "kan.npz")
    metrics = []
    for ckpt in (kan_out / "kan.npz", elsewhere / "kan.npz"):
        out = tmp_path / f"ev-{ckpt.parent.name}"
        assert main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 0
        metrics.append((out / "metrics.csv").read_bytes())
    assert metrics[0] == metrics[1]
    row = _read_metrics(tmp_path / "ev-elsewhere" / "metrics.csv")[0]
    assert float(row["r2_mean"]) > 0.9


def test_version_1_checkpoint_is_refused(tmp_path, capsys):
    data = _gen(tmp_path, "ci", count=50)
    kan_out = tmp_path / "k"
    assert main(["train-kan", "--data", str(data), "--shape", "4,2,1",
                 "--grid", "5", "--steps", "5", "--no-symbolic",
                 "--out", str(kan_out)]) == 0
    doc = json.loads((kan_out / "kan.npz").read_text())
    assert doc["version"] == 2
    del doc["input_scale"]
    old = tmp_path / "old.npz"
    old.write_text(json.dumps(dict(doc, version=1)))
    capsys.readouterr()
    out = tmp_path / "ev"
    assert main(["eval", "--data", str(data), "--checkpoint", str(old),
                 "--out", str(out)]) == 2
    assert "unsupported checkpoint version 1" in capsys.readouterr().err
    assert not out.exists()


def test_closed_stdout_keeps_every_run_file(tmp_path):
    # each command runs in a child process whose stdout reader has gone
    data = _gen(tmp_path, "ci", count=60)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    dsr = tmp_path / "dsr"
    ev = tmp_path / "ev"
    for out, argv in (
            (dsr, ["train-dsr", "--data", str(data), "--samples", "100",
                   "--batch", "100", "--min-len", "3", "--out", str(dsr)]),
            (ev, ["eval", "--data", str(data), "--expr-json",
                  str(dsr / "expression.json"), "--out", str(ev)])):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "autopl.cli", *argv], stdout=write_end,
                stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
                text=True, timeout=300)
        finally:
            os.close(write_end)
        assert "Traceback" not in done.stderr
        assert done.returncode == 0, done.stderr
        m = json.load(open(out / "manifest.json"))
        assert "metrics.csv" in m["outputs"]
        assert set(os.listdir(out)) - {"manifest.json"} == set(m["outputs"])


_METRICS_HEADER = ("method,mae_mean,mae_std,mse_mean,mse_std,mape_mean,"
                   "mape_std,r2_mean,r2_std,expression,valid")


@pytest.mark.parametrize("text, column", [
    (f"{_METRICS_HEADER}\nfs,abc,0,1,0,1,0,0.5,0,,\n", "mae_mean"),
    (f"{_METRICS_HEADER.replace(',r2_std', '')}\nfs,1,0,1,0,1,0,0.5,,\n",
     "r2_std"),
], ids=["non-numeric-mean", "missing-std-column"])
def test_report_on_malformed_metrics_is_a_data_error(tmp_path, capsys, text,
                                                     column):
    src = tmp_path / "run"
    src.mkdir()
    (src / "metrics.csv").write_text(text)
    out = tmp_path / "rep"
    capsys.readouterr()
    assert main(["report", "--runs", str(src), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(src / "metrics.csv") in err
    assert f"'{column}'" in err
    assert not out.exists()


def _unopenable(tmp_path, which):
    """argv for a small eval or train-dsr run, with the path named by
    `which` (--data, --expr-json, --config or --out) one that cannot be
    opened as the command needs: a directory, or for --out a file."""
    data = _gen(tmp_path, "ci", count=40)
    expr = tmp_path / "expr.json"
    i = read_csv(data).feature_names.index("d_m")
    expr.write_text(tree_to_json(ExpressionTree((Token.variable("d_m", i),))))
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    paths = {"--data": data, "--expr-json": expr, "--config": cfg,
             "--out": tmp_path / "out"}
    bad = tmp_path / "bad"
    if which == "--out":
        bad.write_text("a file, not a directory\n")
    else:
        bad.mkdir()
    paths[which] = bad
    return paths, bad


@pytest.mark.parametrize("command, which", [
    ("eval", "--data"), ("eval", "--expr-json"), ("eval", "--config"),
    ("eval", "--out"), ("train-dsr", "--data"), ("train-dsr", "--config"),
    ("train-dsr", "--out"),
])
def test_unopenable_path_is_a_data_error(tmp_path, capsys, command, which):
    paths, bad = _unopenable(tmp_path, which)
    argv = [command]
    for flag in ("--data", "--config", "--out"):
        argv += [flag, str(paths[flag])]
    if command == "eval":
        argv += ["--expr-json", str(paths["--expr-json"])]
    else:
        argv += ["--samples", "100", "--batch", "100", "--min-len", "3"]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_missing_files_are_data_errors(tmp_path, capsys):
    data = _gen(tmp_path, "ci", count=40)
    missing = str(tmp_path / "missing.json")
    for argv in (
            ["eval", "--data", missing, "--expr-json", missing],
            ["eval", "--data", str(data), "--expr-json", missing],
            ["eval", "--data", str(data), "--checkpoint", missing],
            ["eval", "--data", str(data), "--expr-json", missing,
             "--config", missing],
            ["gen-data", "--input", missing]):
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "x")]) == 2, argv
        assert missing in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv, cfg, key", [
    (["eval", "--expr-json"], {"runs": 2.9}, "runs"),
    (["eval", "--expr-json"], {"runs": True}, "runs"),
    (["eval", "--expr-json"], {"split": "0.5"}, "split"),
    (["train-kan", "--shape", "4,2,1", "--steps", "5"],
     {"no_symbolic": "false"}, "no_symbolic"),
    (["train-kan", "--steps", "5"], {"shape": [4, 2.5, 1]}, "shape"),
    (["train-kan", "--shape", "4,2,1", "--steps", "5"], {"seed": None},
     "seed"),
    (["gen-data", "--model", "ci"], {"seed": True}, "seed"),
    (["gen-data", "--count", "30"], {"model": "indoor"}, "model"),
    (["train-dsr", "--samples", "100"], {"policy": ["rspg"]}, "policy"),
], ids=["fractional-int", "boolean-int", "string-float", "string-switch",
        "fractional-shape", "null-seed", "boolean-seed", "unknown-choice",
        "list-choice"])
def test_config_value_of_the_wrong_type_is_a_usage_error(tmp_path, capsys,
                                                          argv, cfg, key):
    data = _gen(tmp_path, "ci", count=40)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    if argv[-1] == "--expr-json":
        expr = tmp_path / "expr.json"
        i = read_csv(data).feature_names.index("d_m")
        expr.write_text(tree_to_json(ExpressionTree(
            (Token.variable("d_m", i),))))
        argv = argv + [str(expr)]
    if argv[0] != "gen-data":
        argv = argv + ["--data", str(data)]
    out = tmp_path / "x"
    capsys.readouterr()
    assert main(argv + ["--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


_OUT_OF_RANGE = [(c, "split", v) for c in ("train-kan", "train-dsr", "eval")
                   for v in ("1.5", "0", "nan")]
_OUT_OF_RANGE += [(c, "seed", "-1")
                    for c in ("gen-data", "train-kan", "train-dsr", "eval")]
_OUT_OF_RANGE += [("gen-data", "count", v) for v in ("0", "-2")]
_OUT_OF_RANGE += [("train-kan", "prune", v) for v in ("2", "-0.5", "nan")]


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("command, key, value", _OUT_OF_RANGE)
def test_out_of_range_split_or_seed_is_a_usage_error(tmp_path, capsys, form,
                                                      command, key, value):
    # the inputs do not exist: both values are checked before any file
    # is read, where a missing file would exit 2
    missing = str(tmp_path / "missing")
    argv = [command, *{"gen-data": ["--model", "ci"],
                       "train-kan": ["--data", missing, "--shape", "4,1"],
                       "train-dsr": ["--data", missing],
                       "eval": ["--data", missing, "--expr-json", missing],
                       }[command]]
    parsed = float(value) if key in ("split", "prune") else int(value)
    if form == "flag":
        argv += [f"--{key}", value]
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: parsed}))
        argv += ["--config", str(cfg_path)]
    out = tmp_path / "x"
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"--{key}" in err and f"not {parsed}" in err
    assert not out.exists()


def test_command_defaults_are_the_engine_config_defaults(tmp_path,
                                                         monkeypatch):
    data = _gen(tmp_path, "ci", count=60)
    seen = {}

    # the run keeps its resolved budget in the manifest, but samples
    # one batch
    def short_train(tc, ds, cs):
        seen.update(tc=tc, cs=cs)
        return dsr_train(dataclasses.replace(tc, sample_budget=tc.batch_size),
                         ds, cs)

    monkeypatch.setattr(cli, "dsr_train", short_train)
    dsr = tmp_path / "dsr"
    assert main(["train-dsr", "--data", str(data), "--out", str(dsr)]) == 0
    config = json.loads((dsr / "manifest.json").read_text())["config"]
    tc_defaults = TrainerConfig()
    for key, field in cli._DSR_FIELDS.items():
        assert config[key] == getattr(tc_defaults, field), key
    assert config["min_len"] == ConstraintSet().min_length
    assert config["max_len"] == ConstraintSet().max_length
    assert seen["tc"] == dataclasses.replace(tc_defaults, seed=seen["tc"].seed)
    assert (seen["cs"].min_length, seen["cs"].max_length) == \
        (ConstraintSet().min_length, ConstraintSet().max_length)

    kan_dir = tmp_path / "kan"
    assert main(["train-kan", "--data", str(data), "--shape", "4,1",
                 "--no-symbolic", "--out", str(kan_dir)]) == 0
    config = json.loads((kan_dir / "manifest.json").read_text())["config"]
    kc = KanConfig(shape=(4, 1))
    assert (config["grid"], config["steps"], config["order"],
            config["lamb"]) == (kc.grid_size, kc.steps, kc.order,
                                kc.reg_lambda)

    out = tmp_path / "gen"
    assert main(["gen-data", "--model", "ci", "--out", str(out)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["count"] == SyntheticSpec(model_kind="ci").count
    assert read_csv(out / "dataset.csv").n_rows == config["count"]


@pytest.mark.parametrize("shape", [[], [4], ""], ids=["empty-list",
                                                       "one-width", "empty"])
def test_shape_without_two_widths_is_a_usage_error(tmp_path, capsys, shape):
    data = _gen(tmp_path, "ci", count=40)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"shape": shape}))
    out = tmp_path / "x"
    capsys.readouterr()
    assert main(["train-kan", "--data", str(data), "--config", str(cfg_path),
                 "--steps", "5", "--out", str(out)]) == 1
    assert "shape needs at least" in capsys.readouterr().err
    assert not out.exists()


def test_config_values_take_every_form_their_flags_give(tmp_path):
    data = _gen(tmp_path, "ci", count=60)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"shape": [4, 2, 1], "grid": 5,
                                    "steps": 5, "lamb": 0, "prune": None,
                                    "no_symbolic": True, "seed": 1}))
    out = tmp_path / "k"
    assert main(["train-kan", "--data", str(data), "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["lamb"] == 0.0 and isinstance(config["lamb"], float)
    assert config["shape"] == [4, 2, 1] and config["prune"] is None
    flags = tmp_path / "f"
    assert main(["train-kan", "--data", str(data), "--shape", "4,2,1",
                 "--grid", "5", "--steps", "5", "--lamb", "0",
                 "--no-symbolic", "--seed", "1", "--out", str(flags)]) == 0
    assert (out / "kan.npz").read_bytes() == (flags / "kan.npz").read_bytes()


@pytest.mark.parametrize("name", ["sin", "C", "3"])
def test_column_named_like_a_token_is_a_data_error(tmp_path, capsys, name):
    X = np.random.default_rng(0).uniform(1.0, 50.0, (40, 2))
    data = tmp_path / "tok.csv"
    write_csv(Dataset(("d_m", name), X, 20.0 * np.log10(X[:, 0]) + X[:, 1],
                      "test"), data)
    out = tmp_path / "x"
    capsys.readouterr()
    assert main(["train-dsr", "--data", str(data), "--samples", "100",
                 "--batch", "100", "--out", str(out)]) == 2
    assert f"feature column {name!r}" in capsys.readouterr().err
    assert not out.exists()
