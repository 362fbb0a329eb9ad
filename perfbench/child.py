"""One benchmark child process: set up a workload, run its timed
operations one after another, check their outputs and write the result
as JSON. run.py starts it as `python3 perfbench/child.py JOB.json`.
"""

from __future__ import annotations

import ctypes
import json
import os
import resource
import sys
import time
import traceback


def _blas() -> dict:
    """BLAS library and thread count, read from the loaded OpenBLAS."""
    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh}
    libs = sorted(p for p in paths if "blas" in p.lower() and ".so" in p)
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"blas": f"{info['name']} {info['version']}", "blas_threads": threads}


def _runtime() -> dict:
    import numpy
    import scipy
    import platform
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, **_blas()}


def _last_error() -> str:
    return traceback.format_exc().strip().splitlines()[-1]


def _run_op(op) -> dict:
    from workloads import outcome  # needs src/ on sys.path, set in main
    t0 = time.perf_counter()
    try:
        value = op.run()
    except Exception:
        return {"label": op.label, "seconds": time.perf_counter() - t0,
                **outcome(failure="raised " + _last_error())}
    seconds = time.perf_counter() - t0
    try:
        found = op.check(value)
    except Exception:
        found = outcome(wrong=["output check raised " + _last_error()])
    return {"label": op.label, "seconds": seconds, **found}


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import autopl
    if not os.path.abspath(autopl.__file__).startswith(src + os.sep):
        raise SystemExit(f"autopl was imported from {autopl.__file__}, "
                         f"not from {src}")
    import tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[job["workload"]]
    units = wl.units(job["seconds"])
    seeds = wl.trainer_seeds(job["seed"], units)
    result = {"units": units, "trainer_seeds": seeds}
    try:
        ops = wl.build(job["seed"], seeds, job["workdir"])
    except Exception:
        result["setup_error"] = _last_error()
        ops = None
    result["ready"] = time.monotonic()
    if ops is not None and not job["setup_only"]:
        tr = None
        if job["trace"]:
            tr = tracer.Tracer()
            tracer.install(tr)
        result["ops"] = [_run_op(op) for op in ops]
        result["quality"] = wl.summarize(result["ops"])
        if tr is not None:
            wall = sum(r["seconds"] for r in result["ops"])
            result["per_layer"] = tr.metrics(wall)
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        result["runtime"] = _runtime()
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
