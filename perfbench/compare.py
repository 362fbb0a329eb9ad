"""Compare two sets of benchmark results, such as a parent commit's and a
change's.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds result files written by run.py (perfbench/out/results/
of one checkout). For every workload it prints each end-to-end metric's
median and quartiles on both sides, and, seed by seed, every quality
number or failure count that changed. Results recorded on different
machines (see `machine_id` in run.py) are refused: exit status 2.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

from run import END_TO_END, machine_id


def _load(directory: str) -> list[dict]:
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            records.append(json.load(fh))
    return [r for r in records if not r["trace"]]


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f} (1 run)"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.4f} [{q1:.4f}, {q3:.4f}] ({len(values)} runs)"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    before, after = _load(argv[0]), _load(argv[1])
    machines = {machine_id(r["machine"]) for r in before + after}
    if len(machines) != 1:
        print(f"error: results come from {len(machines)} different machines "
              f"({', '.join(sorted(machines))}); not comparing",
              file=sys.stderr)
        return 2
    # runs of different unit counts did different work; never pool them
    for workload, units in sorted({(r["workload"], r["units"])
                                   for r in before + after}):
        a = [r for r in before if (r["workload"], r["units"]) == (workload, units)]
        b = [r for r in after if (r["workload"], r["units"]) == (workload, units)]
        print(f"== {workload}, {units} unit(s) per run")
        for name, unit in END_TO_END:
            va = [r["metrics"][name] for r in a]
            vb = [r["metrics"][name] for r in b]
            if va and vb:
                change = statistics.median(vb) / statistics.median(va) - 1.0
                print(f"  {name} ({unit}): before {_spread(va)}, after "
                      f"{_spread(vb)}, median {change:+.1%}")
        print(f"  failed: before {sum(r['failed'] for r in a)}/"
              f"{sum(r['attempted'] for r in a)}, after "
              f"{sum(r['failed'] for r in b)}/{sum(r['attempted'] for r in b)}")
        by_seed = {r["seed"]: r for r in a}
        for r in b:
            old = by_seed.get(r["seed"])
            if old is None:
                continue
            for k, v in r["quality"].items():
                if old["quality"].get(k) != v:
                    print(f"  seed {r['seed']}: {k} {old['quality'].get(k)!r}"
                          f" -> {v!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
