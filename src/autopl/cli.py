"""Command-line workflow runner.

Subcommands cover the full loop: synthetic/ingested dataset generation,
spline-network training with symbolic read-out, policy-gradient symbolic
regression, expression/checkpoint evaluation, analytical baselines, and
report collation.  Every command writes a run manifest that lists the
files it wrote.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import os
import sys

import numpy as np

from autopl import __version__, evalharness as eh, kan
from autopl.dsr import TrainerConfig, train as dsr_train
from autopl.errors import CheckpointError, DataError, DomainError, TrainingError
from autopl.expr.constraints import ConstraintSet, RepeatRule
from autopl.expr.tree import evaluate, tree_from_json, tree_to_json
from autopl.plmodels import (
    SyntheticSpec,
    generate_synthetic,
    load_empirical_csv,
    max_abs,
    read_csv,
    split,
    write_csv,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract reserves
    # 2 for data errors, so route usage problems through our own path
    def error(self, message):
        raise UsageError(message)


# tuned defaults per dataset family -----------------------------------------

KAN_PRESETS: dict[str, dict] = {
    "abg": {"shape": (6, 6, 1), "grid": 10, "steps": 100, "lamb": 0.002},
    "ci": {"shape": (4, 4, 1), "grid": 8, "steps": 300, "lamb": 0.002},
    "indoor": {"shape": (4, 1), "grid": 5, "steps": 100, "lamb": 0.0002},
    "outdoor": {"shape": (3, 1), "grid": 50, "steps": 100, "lamb": 0.02},
}

DSR_PRESETS: dict[tuple[str, str], dict] = {
    ("abg", "rspg"): {"samples": 50000, "batch": 200, "lr": 0.002, "entropy": 0.008},
    ("abg", "pqt"): {"samples": 20000, "batch": 200, "lr": 0.002, "entropy": 0.005},
    ("abg", "vpg"): {"samples": 30000, "batch": 200, "lr": 0.0001, "entropy": 0.005},
    ("ci", "rspg"): {"samples": 2000, "batch": 200, "lr": 0.001, "entropy": 0.008},
    ("ci", "pqt"): {"samples": 3000, "batch": 200, "lr": 0.002, "entropy": 0.005},
    ("ci", "vpg"): {"samples": 1000, "batch": 200, "lr": 0.0005, "entropy": 0.008},
    ("indoor", "rspg"): {"samples": 50000, "batch": 300, "lr": 0.0005, "entropy": 0.03},
    ("indoor", "pqt"): {"samples": 50000, "batch": 200, "lr": 0.001, "entropy": 0.01},
    ("indoor", "vpg"): {"samples": 50000, "batch": 200, "lr": 0.001, "entropy": 0.02},
    ("outdoor", "rspg"): {"samples": 50000, "batch": 200, "lr": 0.0005, "entropy": 0.01},
    ("outdoor", "pqt"): {"samples": 50000, "batch": 200, "lr": 0.0005, "entropy": 0.01},
    ("outdoor", "vpg"): {"samples": 50000, "batch": 200, "lr": 0.0001, "entropy": 0.01},
}

# train-dsr's key for each TrainerConfig field, whose default it takes
_DSR_FIELDS = {"policy": "policy_kind", "samples": "sample_budget",
               "batch": "batch_size", "lr": "learning_rate",
               "entropy": "entropy_weight", "epsilon": "epsilon",
               "queue_k": "queue_k", "alpha": "ewma_alpha"}


# plumbing -------------------------------------------------------------------


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _fan_out(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a flat JSON object")
    return cfg


def _flag_value(key: str, value, flag: argparse.Action, default):
    """A config-file value as its flag would give it (null passes where
    the default is null); UsageError naming the key otherwise."""
    if value is None and default is None:
        return None
    if flag.choices is not None:
        ok, want = value in flag.choices, f"one of {', '.join(flag.choices)}"
    elif flag.nargs == 0:  # a switch
        ok, want = type(value) is bool, "true or false"
    elif flag.type in (int, float):
        ok = type(value) in (flag.type, int)
        want = "an integer" if flag.type is int else "a number"
    elif key == "shape":
        ok = type(value) is str or (type(value) is list and all(
            type(v) is int for v in value))
        want = 'widths such as "4,4,1" or [4, 4, 1]'
    else:
        ok, want = type(value) is str, "a string"
    if not ok:
        raise UsageError(f"config key {key!r} must be {want}, not "
                         f"{json.dumps(value)}")
    return float(value) if flag.type is float else value


def _resolve(args, file_cfg: dict, defaults: dict) -> dict:
    """Flag > config file > default, per key; a split outside (0, 1), a
    negative seed, a count below 1 or a prune threshold outside [0, 1]
    is a usage error."""
    unknown = sorted(set(file_cfg) - set(defaults))
    if unknown:
        raise UsageError(f"unknown config key(s) for {args.command}: "
                         f"{', '.join(unknown)}")
    out = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            out[key] = flag
        elif key in file_cfg:
            out[key] = _flag_value(key, file_cfg[key], args.flags[key],
                                   default)
        else:
            out[key] = default
    if "split" in out and not 0.0 < out["split"] < 1.0:  # NaN fails too
        raise UsageError(f"--split must lie strictly between 0 and 1, "
                         f"not {out['split']}")
    if out.get("seed", 0) < 0:
        raise UsageError(f"--seed must be non-negative, not {out['seed']}")
    if out.get("count", 1) < 1:
        raise UsageError(f"--count must be at least 1, not {out['count']}")
    if out.get("prune") is not None and not 0.0 <= out["prune"] <= 1.0:
        raise UsageError(f"--prune must lie in [0, 1], not {out['prune']}")
    return out


class _RunDir:
    """One command's output directory and its manifest.

    Every file the command writes is named through `path`, so the
    manifest's `outputs` are exactly the files this run wrote.  A
    command prints only through `finish`, after all its files.
    """

    def __init__(self, args):
        self.dir = args.out
        self.command = args.command
        self.started = _utc_now()
        self.inputs: list = []
        self.outputs: list[str] = []

    def input(self, path) -> None:
        self.inputs.append(path)

    def path(self, name: str) -> str:
        if not self.outputs:
            os.makedirs(self.dir, exist_ok=True)
        if name not in self.outputs:
            self.outputs.append(name)
        return os.path.join(self.dir, name)

    def text(self, name: str, s: str) -> None:
        with open(self.path(name), "w") as fh:
            fh.write(s)

    def finish(self, config: dict, seed, rows=None, notes=()) -> None:
        """Write metrics.csv for `rows`, then manifest.json; print each
        of `notes` on its own line, then `rows`."""
        if rows is not None:
            eh.write_table_csv(self.path("metrics.csv"), rows)
        manifest = {
            "command": self.command,
            "config": config,
            "seed": seed,
            "inputs": {str(p): _sha256(p) for p in self.inputs},
            "tool_version": __version__,
            "started_utc": self.started,
            "finished_utc": _utc_now(),
            "outputs": sorted(self.outputs),
        }
        with open(os.path.join(self.dir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
            fh.write("\n")
        text = "".join(f"{note}\n" for note in notes)
        if rows is not None:
            text += eh.format_table(rows)
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has gone and the files are written; point stdout
            # at devnull so the flush at exit cannot raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# gen-data -------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    run = _RunDir(args)
    file_cfg = _load_config_file(args.config)
    cfg = _resolve(args, file_cfg, {"model": None, "input": None,
                                    "target": "pl_db",
                                    "count": SyntheticSpec.count, "seed": 0})
    if (cfg["model"] is None) == (cfg["input"] is None):
        raise UsageError("gen-data needs exactly one of --model or --input")
    notes = []
    if cfg["model"] is not None:
        ds = generate_synthetic(SyntheticSpec(model_kind=cfg["model"],
                                              count=cfg["count"],
                                              seed=cfg["seed"]))
    else:
        run.input(cfg["input"])
        ds, report = load_empirical_csv(cfg["input"], cfg["target"])
        notes.append(f"ingested {report.kept_rows}/{report.total_rows} rows")
    out_csv = run.path("dataset.csv")
    write_csv(ds, out_csv)
    notes.append(f"wrote {out_csv} ({ds.n_rows} rows, "
                 f"{len(ds.feature_names)} features)")
    run.finish(cfg, cfg["seed"], notes=notes)
    return 0


# train-kan ------------------------------------------------------------------


def _parse_shape(text) -> tuple[int, ...]:
    if isinstance(text, (list, tuple)):
        shape = tuple(text)
    else:
        try:
            shape = tuple(int(p) for p in text.split(",") if p.strip())
        except ValueError:
            raise UsageError(f"bad shape {text!r}; expected e.g. "
                             f"4,4,1") from None
    if len(shape) < 2:
        raise UsageError("shape needs at least input and output widths")
    return shape


def _write_graph_csv(path, net, importance, sym=None) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "in_node", "out_node", "active",
                         "importance", "family", "r2"])
        for l, layer in enumerate(net.layers):
            for i, j in np.ndindex(layer.prune_mask.shape):
                family = fit_r2 = ""
                if sym is not None:
                    family = sym.families[l][i, j]
                    fit_r2 = f"{sym.r2[l][i, j]:.6f}"
                writer.writerow([l, i, j, int(bool(layer.prune_mask[i, j])),
                                 f"{importance[l][i, j]:.6f}", family, fit_r2])


def cmd_train_kan(args) -> int:
    run = _RunDir(args)
    file_cfg = _load_config_file(args.config)
    preset = KAN_PRESETS.get(args.model, {}) if args.model else {}
    kc = kan.KanConfig  # its field defaults, under the preset's values
    defaults = {"shape": None, "grid": kc.grid_size, "steps": kc.steps,
                "order": kc.order, "lamb": kc.reg_lambda, **preset,
                "seed": 0, "split": 0.8, "prune": None, "no_symbolic": False}
    cfg = _resolve(args, file_cfg, defaults)
    if cfg["shape"] is None:
        raise UsageError("train-kan needs --model or --shape")
    shape = _parse_shape(cfg["shape"])

    run.input(args.data)
    ds = read_csv(args.data)
    if shape[0] != len(ds.feature_names):
        raise DataError(f"shape expects {shape[0]} features, dataset has "
                        f"{len(ds.feature_names)}")
    # spline edges live on a fixed input interval: the net divides each
    # feature by its largest magnitude
    input_scale = max_abs(ds)
    seeds = _fan_out(cfg["seed"], 2)
    train_ds, test_ds = split(ds, cfg["split"], seeds[0])

    net = kan.build_network(kan.KanConfig(
        shape=shape, grid_size=cfg["grid"], order=cfg["order"],
        steps=cfg["steps"], reg_lambda=cfg["lamb"], seed=seeds[1]),
        input_scale)
    result = kan.train(net, train_ds.X, train_ds.y)
    if cfg["prune"] is not None:
        net = kan.prune(net, train_ds.X, cfg["prune"])

    kan.save_kan(net, run.path("kan.npz"), ds.feature_names)

    pred_spline = net.predict(test_ds.X)
    rows = [eh.single_row("kan-spline", eh.score(pred_spline, test_ds.y))]
    scatter = [(test_ds.y, pred_spline)]
    expressions = ""
    importance = kan.edge_importance(net, train_ds.X)
    sym = None

    if not cfg["no_symbolic"]:
        sym = kan.auto_symbolic(net, train_ds.X)
        sym, _ = kan.retrain_affine(sym, train_ds.X, train_ds.y)
        tree = kan.extract_expression(sym, ds.feature_names)
        pred_sym = sym.predict(test_ds.X)
        rows.append(eh.single_row("kan-symbolic", eh.score(pred_sym, test_ds.y),
                                  **eh.formula_columns(tree, ds)))
        scatter.append((test_ds.y, pred_sym))
        expressions = rows[-1]["expression"] + "\n"
        run.text("expression.json", tree_to_json(tree))

    eh.write_table_csv(run.path("history.csv"), result.history,
                       ("step", "mse", "reg", "loss"))
    _write_graph_csv(run.path("graph.csv"), net, importance, sym)
    eh.write_scatter_csv(run.path("scatter.csv"), scatter)
    run.text("expressions.txt", expressions)
    run.finish(dict(cfg, shape=list(shape)), cfg["seed"], rows)
    return 0


# train-dsr ------------------------------------------------------------------


def cmd_train_dsr(args) -> int:
    run = _RunDir(args)
    file_cfg = _load_config_file(args.config)
    default = TrainerConfig.policy_kind
    policy = args.policy or _flag_value("policy",
                                        file_cfg.get("policy", default),
                                        args.flags["policy"], default)
    preset = DSR_PRESETS.get((args.model, policy), {}) if args.model else {}
    defaults = {**{key: getattr(TrainerConfig, field)
                   for key, field in _DSR_FIELDS.items()},
                "min_len": ConstraintSet.min_length,
                "max_len": ConstraintSet.max_length, **preset,
                "policy": policy, "seed": 0, "split": 0.8}
    cfg = _resolve(args, file_cfg, defaults)

    run.input(args.data)
    ds = read_csv(args.data)
    seeds = _fan_out(cfg["seed"], 2)
    train_ds, test_ds = split(ds, cfg["split"], seeds[0])

    roles = eh.infer_roles(ds.feature_names)
    rules = {name: RepeatRule(min_count=1) for name in roles}
    cs = ConstraintSet(min_length=cfg["min_len"], max_length=cfg["max_len"],
                       repeat_rules=rules)
    tc = TrainerConfig(**{field: cfg[key] for key, field in _DSR_FIELDS.items()},
                       seed=seeds[1])
    result = dsr_train(tc, train_ds, cs)

    eh.write_table_csv(run.path("history.csv"), result.history,
                       ("step", "best_reward", "mean_reward",
                        "best_expression_infix"))

    tree = result.best_tree
    pred = evaluate(tree, test_ds.X)
    rows = [eh.single_row(f"dsr-{cfg['policy']}", eh.score(pred, test_ds.y),
                          **eh.formula_columns(tree, ds))]
    eh.write_scatter_csv(run.path("scatter.csv"), [(test_ds.y, pred)])
    run.text("expressions.txt", rows[0]["expression"] + "\n")
    run.text("expression.json", tree_to_json(tree))
    run.finish(cfg, cfg["seed"], rows,
               notes=[f"best reward {result.best_reward:.4f} after "
                      f"{result.samples_used} samples"])
    return 0


# eval -----------------------------------------------------------------------


def cmd_eval(args) -> int:
    run = _RunDir(args)
    file_cfg = _load_config_file(args.config)
    cfg = _resolve(args, file_cfg, {"runs": 1, "split": 0.8, "seed": 0})
    if (args.expr_json is None) == (args.checkpoint is None):
        raise UsageError("eval needs exactly one of --expr-json or --checkpoint")
    runs = cfg["runs"]
    if runs < 1:
        raise UsageError(f"--runs must be at least 1, got {runs}")

    run.input(args.data)
    ds = read_csv(args.data)
    tree = None
    if args.expr_json is not None:
        run.input(args.expr_json)
        with open(args.expr_json) as fh:
            text = fh.read()
        try:
            tree = tree_from_json(text)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed expression file {args.expr_json}: "
                            f"{exc!r}") from exc
        # variables are stored by column index; the name must match too
        for t in tree.tokens:
            i = t.var_index
            if i is not None and ds.feature_names[i:i + 1] != (t.name,):
                raise DataError(f"expression variable {t.name!r} is not column "
                                f"{i} of {', '.join(ds.feature_names)}")
        label = "expression"

        def predictor(X):
            return evaluate(tree, X)
    else:
        run.input(args.checkpoint)
        predictor = kan.load_kan(args.checkpoint, ds.feature_names).predict
        label = "checkpoint"

    formula = eh.formula_columns(tree, ds) if tree is not None else {}
    if runs > 1:
        report = eh.monte_carlo_eval(lambda _train: predictor, ds, runs=runs,
                                     train_fraction=cfg["split"],
                                     base_seed=cfg["seed"])
        rows = [eh.metrics_row(label, report, **formula)]
        scatter = list(report.predictions)
    else:
        pred = predictor(ds.X)
        rows = [eh.single_row(label, eh.score(pred, ds.y), **formula)]
        scatter = [(ds.y, pred)]

    eh.write_scatter_csv(run.path("scatter.csv"), scatter)
    valid = formula.get("valid")
    run.finish(cfg, cfg["seed"], rows,
               notes=[f"{label}: {valid}"] if valid else ())
    return 0


# baseline and report ---------------------------------------------------------


def cmd_baseline(args) -> int:
    run = _RunDir(args)
    run.input(args.data)
    ds = read_csv(args.data)
    rows = [eh.single_row(r["method"], r)
            for r in eh.baseline_table(ds, args.which)]
    run.finish({"which": args.which}, None, rows)
    return 0


def cmd_report(args) -> int:
    run = _RunDir(args)
    rows = []
    for run_dir in args.runs:
        path = os.path.join(run_dir, "metrics.csv")
        if not os.path.exists(path):
            raise DataError(f"no metrics.csv under {run_dir}")
        run.input(path)
        rows += eh.read_table_csv(path)
    run.finish({"runs": list(args.runs)}, None, rows)
    return 0


# parser ----------------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--config", help="JSON config file (flat keys)")
    sub.add_argument("--seed", type=int)


def _command(sub, func) -> None:
    # a command checks its config-file values against its flags
    sub.set_defaults(func=func, flags={a.dest: a for a in sub._actions})


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="autopl",
                     description="pathloss model discovery toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen-data", help="generate or ingest a dataset")
    p.add_argument("--model", choices=("abg", "ci"))
    p.add_argument("--input", help="empirical CSV to ingest")
    p.add_argument("--target", help="target column for --input")
    p.add_argument("--count", type=int)
    _add_common(p)
    _command(p, cmd_gen_data)

    p = subs.add_parser("train-kan", help="train a spline-edge network")
    p.add_argument("--data", required=True)
    p.add_argument("--model", choices=tuple(KAN_PRESETS))
    p.add_argument("--shape", help="layer widths, e.g. 4,4,1")
    p.add_argument("--grid", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--order", type=int)
    p.add_argument("--lamb", type=float)
    p.add_argument("--split", type=float)
    p.add_argument("--prune", type=float,
                   help="edge-importance pruning threshold")
    p.add_argument("--no-symbolic", action="store_true", default=None,
                   dest="no_symbolic")
    _add_common(p)
    _command(p, cmd_train_kan)

    p = subs.add_parser("train-dsr", help="policy-gradient expression search")
    p.add_argument("--data", required=True)
    p.add_argument("--model", choices=("abg", "ci", "indoor", "outdoor"))
    p.add_argument("--policy", choices=("rspg", "vpg", "pqt"))
    p.add_argument("--samples", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--entropy", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--queue-k", type=int, dest="queue_k")
    p.add_argument("--alpha", type=float)
    p.add_argument("--min-len", type=int, dest="min_len")
    p.add_argument("--max-len", type=int, dest="max_len")
    p.add_argument("--split", type=float)
    _add_common(p)
    _command(p, cmd_train_dsr)

    p = subs.add_parser("eval", help="evaluate an expression or checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--expr-json", dest="expr_json")
    p.add_argument("--checkpoint")
    p.add_argument("--runs", type=int)
    p.add_argument("--split", type=float)
    _add_common(p)
    _command(p, cmd_eval)

    p = subs.add_parser("baseline", help="analytical baseline table")
    p.add_argument("--data", required=True)
    p.add_argument("--which", required=True, choices=("indoor", "outdoor"))
    p.add_argument("--out", required=True)
    _command(p, cmd_baseline)

    p = subs.add_parser("report", help="collate metrics from run directories")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    _command(p, cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (DomainError, DataError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
