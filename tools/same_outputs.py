"""Check that two checkouts of autopl write the same output files.

    python tools/same_outputs.py OTHER_CHECKOUT

Runs a fixed golden set of CLI commands once with this checkout's
``src/`` and once with OTHER_CHECKOUT's, each side in its own temporary
directory under the same relative paths, then compares every file the
commands wrote, and each command's exit code and standard output.  The
manifests' ``started_utc`` and ``finished_utc`` are left out.  Prints
"identical" and exits 0, or prints the first differing line of each file
that differs and exits 1.

The bits depend on the CPU as well as the seed (numpy's SIMD dispatch,
the BLAS kernel), so both sides run here, on the same machine, and no
digest is stored.  The golden set covers every engine path: synthetic
data, the three DSR policies with constant fits in worker processes and,
pinned to one CPU with ``taskset -c 0``, in-process; a longer ``pqt``
run with a three-entry queue, which evicts entries and replays records
sampled several updates earlier; the KAN engine on three seeds with the
read-out's edge fits in worker processes, and on seed 0 pinned to one
CPU, in-process; a KAN run with two hidden layers (three layers of
edges); a pruned KAN run; a KAN run without the symbolic read-out
(``--no-symbolic``); a KAN run on ABG data whose formula is non-finite
on test rows (NaN test metrics); ``eval`` of a DSR expression, of a KAN
expression and of a checkpoint, over 10 Monte-Carlo runs and in a single
shot, and of the pruned run's checkpoint over 3 runs; the ingest of a
CSV (``gen-data --input``); the indoor and outdoor analytical
baselines, over two small CSVs this tool writes before the runs; a
``report`` over a KAN, a DSR, an eval and a baseline run; and the help
text of ``autopl`` and of each command.  At seed 3 each DSR policy
improves on its first batch's best formula, so the search past the
first batch is covered.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile

_DATA = ["--data", "data/dataset.csv"]
_PIN = ["taskset", "-c", "0"]

# (name, command prefix, CLI arguments); a run writes under runs/<name>
GOLDEN: list[tuple[str, list[str], list[str]]] = [
    ("gen-data", [], ["gen-data", "--model", "ci", "--count", "1000",
                      "--seed", "7", "--out", "data"]),
    ("gen-data-abg", [], ["gen-data", "--model", "abg", "--count", "1000",
                          "--seed", "7", "--out", "data-abg"]),
]
for _policy in ("rspg", "vpg", "pqt"):
    for _tag, _prefix in (("", []), ("-one-cpu", _PIN)):
        GOLDEN.append((f"dsr-{_policy}{_tag}", _prefix,
                       ["train-dsr", *_DATA, "--policy", _policy,
                        "--samples", "400", "--seed", "3",
                        "--out", f"runs/dsr-{_policy}{_tag}"]))
for _name, _prefix, _seed in (("kan-0", [], 0), ("kan-0-one-cpu", _PIN, 0),
                              ("kan-1", [], 1), ("kan-2", [], 2)):
    GOLDEN.append((_name, _prefix,
                   ["train-kan", *_DATA, "--model", "ci", "--seed", str(_seed),
                    "--out", f"runs/{_name}"]))
# the queue evicts entries and replays records sampled several updates
# earlier
GOLDEN.append(("dsr-pqt-long", [],
               ["train-dsr", *_DATA, "--policy", "pqt", "--samples", "1000",
                "--queue-k", "3", "--seed", "3",
                "--out", "runs/dsr-pqt-long"]))
GOLDEN += [
    # three layers of edges, each a (d_in, d_out, 4) block of one vector
    ("kan-deep", [], ["train-kan", *_DATA, "--model", "ci", "--shape",
                      "4,3,2,1", "--seed", "5", "--out", "runs/kan-deep"]),
    # pruned edges: zero shapes between the fitted ones
    ("kan-3-prune", [], ["train-kan", *_DATA, "--model", "ci", "--seed", "3",
                         "--prune", "0.1", "--out", "runs/kan-3-prune"]),
    # the spline network alone: training, pruning scores, checkpoint
    ("kan-4-no-symbolic", [], ["train-kan", *_DATA, "--model", "ci",
                               "--seed", "4", "--no-symbolic",
                               "--out", "runs/kan-4-no-symbolic"]),
    # NaN test metrics: the non-finite branches of retraining and polish
    ("kan-abg-0", [], ["train-kan", "--data", "data-abg/dataset.csv",
                       "--model", "abg", "--seed", "0",
                       "--out", "runs/kan-abg-0"]),
    ("eval-expr", [], ["eval", *_DATA, "--expr-json",
                       "runs/dsr-rspg/expression.json", "--runs", "3",
                       "--out", "runs/eval-expr"]),
    ("eval-kan-expr", [], ["eval", *_DATA, "--expr-json",
                           "runs/kan-0/expression.json", "--runs", "3",
                           "--out", "runs/eval-kan-expr"]),
    ("eval-checkpoint", [], ["eval", *_DATA, "--checkpoint",
                             "runs/kan-0/kan.npz", "--runs", "10",
                             "--out", "runs/eval-checkpoint"]),
    ("eval-checkpoint-once", [], ["eval", *_DATA, "--checkpoint",
                                  "runs/kan-0/kan.npz", "--runs", "1",
                                  "--out", "runs/eval-checkpoint-once"]),
    # a pruned network's predictions through a loaded checkpoint
    ("eval-checkpoint-prune", [], ["eval", *_DATA, "--checkpoint",
                                   "runs/kan-3-prune/kan.npz", "--runs", "3",
                                   "--out", "runs/eval-checkpoint-prune"]),
    ("ingest", [], ["gen-data", "--input", "data/dataset.csv", "--target",
                    "pl_db", "--out", "runs/ingest"]),
    ("baseline-indoor", [], ["baseline", "--data", "data-indoor.csv",
                             "--which", "indoor",
                             "--out", "runs/baseline-indoor"]),
    ("baseline-outdoor", [], ["baseline", "--data", "data-outdoor.csv",
                              "--which", "outdoor",
                              "--out", "runs/baseline-outdoor"]),
    ("report", [], ["report", "--runs", "runs/kan-0", "runs/dsr-rspg",
                    "runs/eval-expr", "runs/baseline-indoor",
                    "--out", "runs/report"]),
    # the help text, on stdout with exit 0
    ("help", [], ["--help"]),
]
for _command in ("gen-data", "train-kan", "train-dsr", "eval", "baseline",
                 "report"):
    GOLDEN.append((f"help-{_command}", [], [_command, "--help"]))

_TIMES = ("started_utc", "finished_utc")


def _write_baseline_data(work: str) -> None:
    """The baselines' datasets, 12 rows each in a fixed 6-decimal format,
    written by this tool so both sides read the same bytes."""
    tables = {
        "data-indoor.csv": ("d_m,n_w,n_f,pl_db", [
            (d, w, f, 120.0 + 28.0 * math.log10(d) + 1.5 * w + 10.0 * f
             + 0.5 * (i * 7 % 5 - 2))
            for i, d, w, f in ((i, 2.0 + 3.0 * i, i % 4, i % 3)
                               for i in range(12))]),
        "data-outdoor.csv": ("d_m,h_m,f_mhz,pl_db", [
            (d, h, f, 140.0 + 31.0 * math.log10(d) - 5.0 * math.log10(h)
             + 0.5 * (i * 7 % 5 - 2))
            for i, d, h, f in ((i, 50.0 + 75.0 * i, 1.5 + 0.5 * (i % 4),
                                800.0 + 200.0 * (i % 5)) for i in range(12))]),
    }
    for name, (header, rows) in tables.items():
        with open(os.path.join(work, name), "w") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(f"{v:.6f}" for v in row) + "\n")


def run_golden(checkout: str, work: str) -> None:
    """Run the golden set with checkout's sources, in directory work;
    each command's exit code and stdout go to stdout/<name>.txt."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.abspath(checkout), "src")
    os.makedirs(os.path.join(work, "stdout"))
    _write_baseline_data(work)
    for name, prefix, args in GOLDEN:
        done = subprocess.run(
            [*prefix, sys.executable, "-m", "autopl.cli", *args], cwd=work,
            env=env, capture_output=True, text=True)
        with open(os.path.join(work, "stdout", f"{name}.txt"), "w") as fh:
            fh.write(f"exit {done.returncode}\n{done.stdout}")


def _lines(path: str) -> list[str]:
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8", errors="replace")
    if os.path.basename(path) == "manifest.json":
        try:
            doc = json.loads(text)
        except ValueError:
            return text.splitlines()
        for key in _TIMES:
            doc.pop(key, None)
        return json.dumps(doc, indent=1, sort_keys=True).splitlines()
    return text.splitlines()


def _shown(lines: list[str], n: int, width: int = 160) -> str:
    if n >= len(lines):
        return "<end of file>"
    line = lines[n]
    return line if len(line) <= width else line[:width] + " ..."


def _files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def compare(other: str, this: str) -> list[str]:
    """One report line per file that differs between the two trees."""
    report = []
    a_files, b_files = _files(other), _files(this)
    for rel in sorted(a_files | b_files):
        if rel not in b_files or rel not in a_files:
            side = "this checkout" if rel in b_files else "the other checkout"
            report.append(f"{rel}: written only by {side}")
            continue
        a, b = _lines(os.path.join(other, rel)), _lines(os.path.join(this, rel))
        if a == b:
            continue
        n = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                 min(len(a), len(b)))
        other_line, this_line = (_shown(lines, n) for lines in (a, b))
        report.append(f"{rel}: line {n + 1}\n  other: {other_line}\n"
                      f"  this:  {this_line}")
    return report


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/same_outputs.py OTHER_CHECKOUT",
              file=sys.stderr)
        return 2
    other = argv[0]
    this = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(other, "src", "autopl")):
        print(f"error: {other} holds no src/autopl", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        sides = os.path.join(tmp, "other"), os.path.join(tmp, "this")
        for checkout, work in zip((other, this), sides):
            run_golden(checkout, work)
        report = compare(*sides)
    print("\n".join(report) if report else "identical")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
