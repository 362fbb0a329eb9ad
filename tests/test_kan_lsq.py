"""The read-out's trust-region least squares against scipy's own.

`autopl.kan.lsq.least_squares` copies scipy's `least_squares` (method
"trf", no bounds, exact solver) for the configuration `_refine` uses, so
on every edge refit it must take scipy's steps bit for bit: the same
parameters, cost, number of residual evaluations and exit status.
"""

import numpy as np
import pytest
from scipy import optimize

from autopl.kan import lsq, symbolic
from autopl.kan.symbolic import EDGE_FAMILIES, fit_edge

_least_squares = lsq.least_squares  # the copy, before any test patches it


def _curves():
    """Sampled edge curves: every family's own shape, exact and noisy,
    and shapes no family matches."""
    rng = np.random.default_rng(5)
    x = np.linspace(-1.0, 1.05, 120)
    for name, fam in EDGE_FAMILIES.items():
        if name == "zero":
            continue
        a, b = (1.3, 0.4) if name not in ("sqrt", "log10", "reciprocal") \
            else (0.8, 1.2)
        clean = 1.7 * fam.fn(a * x + b) - 0.3
        yield clean
        yield clean + rng.normal(0.0, 0.05, x.size)
    yield np.abs(x - 0.2)
    yield np.tanh(4.0 * x)
    yield np.where(x > 0.3, 1.0, 0.0) + 0.01 * x


class _Spy:
    """Counts what the refits reach: exit statuses, steps with alpha zero
    (Gauss-Newton) and above zero, rank-deficient Jacobians, and
    residuals held at the 1e6 penalty."""

    def __init__(self, monkeypatch):
        self.status, self.gauss_newton, self.damped = set(), 0, 0
        self.rank_deficient, self.penalty, self.runs = 0, 0, 0
        real_solve = lsq._solve_trust_region

        def solve(n, m, uf, s, V, Delta, alpha):
            if not s[-1] > np.finfo(float).eps * m * s[0]:
                self.rank_deficient += 1
            p, new_alpha = real_solve(n, m, uf, s, V, Delta, alpha)
            if new_alpha == 0:
                self.gauss_newton += 1
            else:
                self.damped += 1
            return p, new_alpha

        monkeypatch.setattr(lsq, "_solve_trust_region", solve)


def _compare(spy, fun, jac, x0, max_nfev):
    def counted(x):
        f = fun(x)
        spy.penalty += int(np.any(f == 1e6))
        return f

    try:
        ours = _least_squares(counted, jac, x0, max_nfev=max_nfev)
    except ValueError:
        with pytest.raises(ValueError):
            optimize.least_squares(fun, x0, jac=jac, max_nfev=max_nfev)
        raise
    ref = optimize.least_squares(fun, x0, jac=jac, max_nfev=max_nfev)
    assert ours.x.tobytes() == ref.x.tobytes()
    assert ours.cost == ref.cost
    assert ours.nfev == ref.nfev
    assert ours.status == ref.status
    spy.status.add(ours.status)
    spy.runs += 1
    return ours


def test_trust_region_takes_scipys_steps(monkeypatch):
    spy = _Spy(monkeypatch)
    families = set()

    def checked(fun, jac, x0, max_nfev):
        # every refit as the read-out runs it, and cut short at 5 calls
        families.add(checked.family)
        _compare(spy, fun, jac, x0, 5)
        return _compare(spy, fun, jac, x0, max_nfev)

    real_refine = symbolic._refine

    def refine(fam, x, y, start):
        checked.family = fam.name
        return real_refine(fam, x, y, start)

    monkeypatch.setattr(lsq, "least_squares", checked)
    monkeypatch.setattr(symbolic, "_refine", refine)
    x = np.linspace(-1.0, 1.05, 120)
    for y in _curves():
        fit_edge(x, y)
    assert families == set(EDGE_FAMILIES) - {"zero"}
    # a max_nfev stop, a gtol exit (exact fits), an ftol and an xtol exit
    assert spy.status == {0, 1, 2, 3}
    assert spy.gauss_newton and spy.damped
    assert spy.rank_deficient
    assert spy.penalty
    assert spy.runs > 100, vars(spy)


def test_trust_region_refuses_a_non_finite_start():
    x = np.linspace(0.0, 1.0, 10)

    def fun(p):
        return np.where(x > 0.5, np.nan, p[0] * x - 1.0)

    def jac(p):
        return x[:, None]

    with pytest.raises(ValueError):
        lsq.least_squares(fun, jac, np.array([1.0]), max_nfev=20)
    with pytest.raises(ValueError):
        optimize.least_squares(fun, np.array([1.0]), jac=jac, max_nfev=20)


def _edge_problem(fam, x, y):
    """The residual and Jacobian `_refine` builds for one family."""
    def residual(p):
        with np.errstate(all="ignore"):
            pred = p[2] * fam.fn(p[0] * x + p[1]) + p[3]
        return np.where(np.isfinite(pred), pred - y, 1e6)

    def jacobian(p):
        with np.errstate(all="ignore"):
            u = p[0] * x + p[1]
            fu = fam.fn(u)
            slope = p[2] * fam.dfn(u)
            jac = np.column_stack([slope * x, slope, fu, np.ones_like(x)])
            jac[~np.isfinite(p[2] * fu + p[3])] = 0.0
        return np.where(np.isfinite(jac), jac, 0.0)

    return residual, jacobian


@pytest.mark.parametrize("curve,x0", [
    ((-0.705093243077797, 2.0238734843207915, -1.7379446806508623,
      0.8446711583359807),
     [1.099165432433205, 1.2312506920812933, -3.112101489454027,
      1.6604380591095018]),
    ((-0.4785213461270247, 0.98025274961965, -1.1710036148478007,
      -1.0240235363006114),
     [2.369456147669445, 1.0245724000604544, -0.42253464234603094,
      2.946697835771924]),
])
def test_trust_region_keeps_the_radius_below_its_bound(curve, x0):
    # sin fits from far starts: a Gauss-Newton step between 0.9 and 0.95
    # of the radius leaves the radius as it is
    c, a, b, d = curve
    x = np.linspace(-1.0, 1.05, 12)
    fun, jac = _edge_problem(EDGE_FAMILIES["sin"], x,
                             c * np.sin(a * x + b) + d)
    ours = _least_squares(fun, jac, np.array(x0), max_nfev=200)
    ref = optimize.least_squares(fun, np.array(x0), jac=jac, max_nfev=200)
    assert ours.x.tobytes() == ref.x.tobytes()
    assert (ours.cost, ours.nfev, ours.status) == \
        (ref.cost, ref.nfev, ref.status)


def test_trust_region_gtol_reads_the_largest_gradient_component():
    # gradient 6e-9 in each of four components: below gtol in the
    # infinity norm, above it in the Euclidean one
    target = np.array([0.5, -1.0, 2.0, 3.0])

    def fun(p):
        return p - target

    def jac(p):
        return np.eye(4)

    x0 = target + 6e-9
    ours = _least_squares(fun, jac, x0, max_nfev=200)
    ref = optimize.least_squares(fun, x0, jac=jac, max_nfev=200)
    assert (ours.nfev, ours.status) == (ref.nfev, ref.status) == (1, 1)
    assert ours.x.tobytes() == ref.x.tobytes()
