"""autopl benchmark: how long formula discovery takes and how good the
formulas are, on seeded workloads.

    python3 perfbench/run.py --workload dsr-ci --seed 0 --seconds 48 --trace 0
    python3 perfbench/run.py --workload all [--seed N] [--trace 1]

Run it from the root of a checkout; it imports autopl from that
checkout's src/. Each run starts one child process at a time
(perfbench/child.py): four that only set up, to time set-up, then one
that sets up, runs the workload's timed operations and checks their
outputs. With --trace 1 the child wraps autopl's layers (tracer.py) and
the run reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. `failed` counts operations that
raised, exited non-zero, produced a non-finite result or failed an
output check; `correct` is false when an output check failed or a
result differs from an earlier run of the same code, seed and machine.
Records and run directories go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracer import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

WORKLOADS = ("dsr-ci", "kan-ci", "dsr-recover")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# Quality of the formulas, reported beside the times. It is deterministic
# for a fixed seed but moves with the seed, so it is compared seed by seed
# (determinism guard, compare.py) rather than by a median over seeds.
QUALITY_UNITS = {"best_reward": "reward", "test_r2": "R2", "spline_r2": "R2",
                 "recovered": "count", "samples_to_solve": "count"}
SETUP_PROBES = 4
RUN_LIMIT_S = 170.0


def _code_sha() -> str:
    """Hash of the program and benchmark sources, standing in for a commit
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d not in ("out", "__pycache__"))
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine_record() -> dict:
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(),
            "loadavg_start": list(os.getloadavg()),
            "git_commit": _git_commit(),
            "code_sha": _code_sha()}


MACHINE_KEYS = ("nproc", "usable_cpus", "cpu", "python", "numpy", "scipy",
                "blas", "blas_threads")


def machine_id(machine: dict) -> str:
    """Fingerprint of what makes timings comparable; results with
    different ids are never compared."""
    doc = json.dumps({k: machine.get(k) for k in MACHINE_KEYS}, sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:12]


def _spawn(job: dict, log_path: str, deadline: float) -> tuple[dict | None, float, str]:
    """Run one child to completion; returns (result, spawn time, error)."""
    job_path = job["result"] + ".job"
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    with open(log_path, "ab") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"),
                                 job_path], cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None, spawned, "child timed out and was killed"
    if code != 0 or not os.path.exists(job["result"]):
        return None, spawned, f"child exited with {code}; see {log_path}"
    with open(job["result"]) as fh:
        return json.load(fh), spawned, ""


def _record_path(workload: str, seed: int, units: int, machine: dict) -> str:
    return os.path.join(OUT, "records", f"{workload}-s{seed}-u{units}-"
                        f"{machine['code_sha']}-{machine_id(machine)}.json")


def _first_run(path: str, fields: dict, latest: dict) -> dict:
    """The deterministic fields of the first run recorded at path, or this
    run's when there is none; `latest` is stored over what was there."""
    stored = {}
    if os.path.exists(path):
        with open(path) as fh:
            stored = json.load(fh)
    for name, value in fields.items():
        stored.setdefault(name, value)
    stored.update(latest)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
    return stored


def run_workload(name: str, seed: int, seconds: float | None,
                 trace: bool) -> dict | None:
    """One benchmark run of one workload: the full run record, or None
    (after printing why) when the child produced no result."""
    deadline = time.monotonic() + RUN_LIMIT_S
    machine = machine_record()
    work = os.path.join(OUT, "work", f"{name}-s{seed}-t{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    log = os.path.join(work, "child.log")

    def job(tag: str, setup_only: bool) -> dict:
        workdir = os.path.join(work, tag)
        os.makedirs(workdir)
        return {"root": ROOT, "workload": name, "seed": seed,
                "seconds": seconds, "trace": trace, "setup_only": setup_only,
                "workdir": workdir, "result": os.path.join(work, tag + ".json")}

    setups = []
    for i in range(SETUP_PROBES):
        res, spawned, err = _spawn(job(f"setup{i}", True), log, deadline)
        if res is not None and "setup_error" not in res:
            setups.append(res["ready"] - spawned)
    res, spawned, err = _spawn(job("run", False), log, deadline)
    if res is None or "setup_error" in res:
        why = err or "set-up failed: " + res["setup_error"]
        print(f"error: {name} seed {seed}: {why}", file=sys.stderr)
        return None
    setups.append(res["ready"] - spawned)
    machine.update(res["runtime"])
    ops = res["ops"]
    # JSON round trip, so that values compare equal to stored ones
    fields = json.loads(json.dumps({"outcomes": [
        {k: o[k] for k in ("label", "failure", "wrong", "quality", "formula")}
        for o in ops]}))
    latest = {}
    if trace:
        fields["counts"] = {k: res["per_layer"][k] for k, unit in PER_LAYER
                            if unit != "s"}
    else:
        latest["untraced_wall_s"] = sum(o["seconds"] for o in ops)
    first = _first_run(_record_path(name, seed, res["units"], machine),
                       fields, latest)
    for op, now, then in zip(ops, fields["outcomes"], first["outcomes"]):
        if now != then:
            op["wrong"].append("outcome differs from the first run of the "
                               f"same code, seed and machine: {then}")
    errors = []
    if trace and first["counts"] != fields["counts"]:
        errors.append("per-layer counts differ from the first traced run of "
                      "the same code, seed and machine")
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": machine, "units": res["units"],
              "trainer_seeds": res["trainer_seeds"], "ops": ops,
              "quality": res["quality"], "errors": errors,
              "attempted": len(ops),
              "failed": sum(bool(o["failure"] or o["wrong"]) for o in ops),
              "correct": not errors and not any(o["wrong"] for o in ops),
              "metrics": {"wall_s": sum(o["seconds"] for o in ops),
                          "setup_s": statistics.median(setups),
                          "peak_rss_mb": res["peak_rss_mb"]}}
    if trace:
        record["per_layer"] = res["per_layer"]
    return record


def _save(record: dict) -> None:
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = os.path.join(OUT, "results", f"{stamp}-{record['workload']}"
                        f"-s{record['seed']}-t{int(record['trace'])}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


def _print_record(r: dict) -> None:
    m = r["machine"]
    print(f"== {r['workload']} seed {r['seed']} trace {int(r['trace'])}: "
          f"{r['units']} unit(s), trainer seeds {r['trainer_seeds']}")
    print(f"machine {machine_id(m)}: nproc {m['nproc']}, {m['cpu']}, python "
          f"{m.get('python')}, numpy {m.get('numpy')}, scipy {m.get('scipy')}, "
          f"{m.get('blas')} x{m.get('blas_threads')} threads, load "
          f"{m['loadavg_start'][0]:.2f}, commit {m['git_commit']}, "
          f"code {m['code_sha']}")
    for o in r["ops"]:
        status = ("FAILED: " + o["failure"] if o["failure"] else
                  "FAILED: wrong output" if o["wrong"] else "ok")
        print(f"  {o['label']:<28} {o['seconds']:8.3f} s  {status}")
        for w in o["wrong"]:
            print(f"    WRONG: {w}")
        if o["formula"]:
            print(f"    formula: {o['formula'][:160]}")
    for e in r["errors"]:
        print(f"  ERROR: {e}")
    for name, value, unit in _end_to_end(r):
        print(f"  {name:<18} {value!r} {unit}")
    if r["trace"]:
        for name, unit in PER_LAYER:
            print(f"  {name:<26} {r['per_layer'][name]!r} {unit}")
        over = _overhead(r)
        if over is not None:
            print(f"  tracing overhead {over:.3f} s ({over / r['metrics']['wall_s']:.1%}"
                  f" of traced wall)")


def _end_to_end(r: dict) -> list[tuple[str, float, str]]:
    """Every end-to-end metric of a run: times, failures and quality."""
    rows = [(n, r["metrics"][n], u) for n, u in END_TO_END]
    rows.append(("fail_frac", r["failed"] / r["attempted"], "fraction"))
    rows += [(k, v, QUALITY_UNITS[k]) for k, v in r["quality"].items()]
    return rows


def _result_line(r: dict) -> dict:
    if r["trace"]:
        names, values = PER_LAYER, r["per_layer"]
    else:
        names, values = END_TO_END, r["metrics"]
    return {"correct": r["correct"], "attempted": r["attempted"],
            "failed": r["failed"],
            "metrics": {n: {"value": values[n], "unit": u} for n, u in names}}


def _overhead(r: dict) -> float | None:
    """Traced wall time minus the latest untraced one of the same code,
    seed and machine."""
    path = _record_path(r["workload"], r["seed"], r["units"], r["machine"])
    with open(path) as fh:
        untraced = json.load(fh).get("untraced_wall_s")
    if untraced is None:
        return None
    return r["per_layer"]["trace.wall_s"] - untraced


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed; 0 is the reference configuration")
    p.add_argument("--seconds", type=float, default=None,
                   help="run about this long; omitted: reference configuration")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "autopl", "__init__.py")):
        print(f"error: no autopl sources under {ROOT}/src", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    # with --workload all --trace 1 each workload runs untraced first, so
    # the traced run can report its overhead
    passes = (0, 1) if args.workload == "all" and args.trace else (args.trace,)
    records = []
    for name in names:
        for trace in passes:
            r = run_workload(name, args.seed, args.seconds, bool(trace))
            if r is None:
                return 1
            _save(r)
            _print_record(r)
            records.append(r)
    if args.workload != "all":
        print(json.dumps(_result_line(records[0])))
        return 0
    print("== end-to-end metrics, tracing off")
    for r in records:
        if not r["trace"]:
            for name, value, unit in _end_to_end(r):
                print(f"  {r['workload']:<12} {name:<18} {value!r} {unit}")
    print(json.dumps({f"{r['workload']}{'+trace' * r['trace']}": _result_line(r)
                      for r in records}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
