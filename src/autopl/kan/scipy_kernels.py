"""The two compiled scipy kernels train-kan calls, loaded on their own.

train-kan needs L-BFGS-B's `setulb` (C. Zhu, R. H. Byrd, P. Lu and
J. Nocedal, ACM TOMS 23, 1997) for the network fit and the read-out's
affine retrain, and LAPACK's `dgesdd` for the read-out's least squares.
Importing `scipy.optimize` or `scipy.linalg` to reach them would load
sparse, special, spatial, fft and more, which no command uses; this
module loads only the two compiled files, from the installed scipy's
package directory, without importing the `scipy` package.  When scipy
has already loaded a file, its module is used as it is.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

# scipy's L-BFGS-B limits: line-search steps per iteration, and the
# objective calls after which the current iteration is the last
_MAXLS = 20
_MAXFUN = 15000


def _extension(name: str):
    """The compiled module `name` (a dotted name under scipy)."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec("scipy")
    roots = [] if spec is None else spec.submodule_search_locations or []
    *package, leaf = name.split(".")[1:]
    for root in roots:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, *package, leaf + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(name, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules[name] = module
                return module
    raise ImportError(f"train-kan needs scipy 1.17's compiled {name}, "
                      "which the installed scipy does not have")


def minimize_lbfgsb(fun_and_grad, x0, *, maxiter, ftol, gtol=1e-5,
                    maxcor=10, callback=None):
    """Minimize an objective from x0 by L-BFGS-B without bounds; return
    the last point and its objective value.

    Takes the steps of scipy 1.17.1's `minimize(fun_and_grad, x0,
    jac=True, method="L-BFGS-B", callback=callback, options=...)` with
    the options named here, bit for bit: `fun_and_grad(x)` returns the
    objective and its gradient at (a copy of) x, and is called once per
    distinct point, x0 first; `callback` receives a copy of x at the end
    of each iteration.
    """
    setulb = _extension("scipy.optimize._lbfgsb").setulb
    m = maxcor
    factr = ftol / np.finfo(float).eps
    x = np.array(x0, dtype=np.float64).ravel()
    n = x.size
    scored = x.copy()
    fx, gx = fun_and_grad(scored.copy())
    nfev = 1

    low_bnd = np.zeros(n, np.float64)
    upper_bnd = np.zeros(n, np.float64)
    nbd = np.zeros(n, np.int32)
    f = np.array(0.0, dtype=np.float64)
    g = np.zeros((n,), dtype=np.float64)
    wa = np.zeros(2*m*n + 5*n + 11*m*m + 8*m, np.float64)
    iwa = np.zeros(3*n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29, dtype=np.float64)
    n_iterations = 0
    while True:
        g = g.astype(np.float64)
        setulb(m, x, low_bnd, upper_bnd, nbd, f, g, factr, gtol, wa, iwa,
               task, lsave, isave, dsave, _MAXLS, ln_task)
        if task[0] == 3:
            # f and g at x, scored only when x is not the point scored
            # last (as x0 is at the first request)
            if not np.array_equal(x, scored):
                scored = x.copy()
                fx, gx = fun_and_grad(scored.copy())
                nfev += 1
            f, g = fx, gx
        elif task[0] == 1:
            n_iterations += 1
            if callback is not None:
                callback(np.copy(x))
            if n_iterations >= maxiter:
                task[:] = 5, 504
            elif nfev > _MAXFUN:
                task[:] = 5, 502
        else:
            return x, f


def gesdd():
    """LAPACK's `dgesdd` and its workspace query `dgesdd_lwork`: the
    functions `scipy.linalg.get_lapack_funcs(("gesdd", "gesdd_lwork"),
    (a,), ilp64="preferred")` returns for a float64 array `a` on a build
    without 64-bit LAPACK integers."""
    flapack = _extension("scipy.linalg._flapack")
    return flapack.dgesdd, flapack.dgesdd_lwork
