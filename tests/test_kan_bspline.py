"""B-spline basis: counts, partition of unity, scipy cross-check.

scipy.interpolate.BSpline over the same knot vector is the independent
oracle for both values and derivatives.
"""

import numpy as np
import pytest
from scipy.interpolate import BSpline

from autopl.kan import BSplineBasis
from bspline_reference import full_derivative, full_orders


@pytest.mark.parametrize("grid,order", [(5, 1), (5, 2), (8, 3), (10, 3), (3, 4), (50, 3)])
def test_basis_count(grid, order):
    b = BSplineBasis(grid, order)
    assert b.n_basis == grid + order - 1
    assert b.design_matrix(np.array([0.0])).shape == (1, grid + order - 1)


def test_order_one_is_cell_indicator():
    b = BSplineBasis(5, 1)
    assert b.n_basis == 5
    # cells on [-1, 1.05] are 0.41 wide; each x lights exactly one cell
    D = b.design_matrix(np.array([-1.0, -0.6, 0.0, 1.0, 1.05]))
    want = np.zeros((5, 5))
    for row, cell in enumerate([0, 0, 2, 4, 4]):
        want[row, cell] = 1.0
    assert np.array_equal(D, want)


@pytest.mark.parametrize("grid,order", [(5, 1), (5, 2), (8, 3), (10, 3), (3, 4)])
def test_partition_of_unity(grid, order):
    b = BSplineBasis(grid, order)
    x = np.linspace(b.lo, b.hi, 601)
    sums = b.design_matrix(x).sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-12)


@pytest.mark.parametrize("grid,order", [(5, 2), (8, 3), (10, 3), (3, 4)])
def test_values_match_scipy(grid, order):
    b = BSplineBasis(grid, order)
    # scipy keeps the last interval half-open, so stay off the endpoint
    x = np.linspace(b.lo, b.hi - 1e-9, 257)
    D = b.design_matrix(x)
    for i in range(b.n_basis):
        c = np.zeros(b.n_basis)
        c[i] = 1.0
        ref = np.nan_to_num(BSpline(b.knots, c, order - 1, extrapolate=False)(x))
        assert np.allclose(D[:, i], ref, atol=1e-12)


@pytest.mark.parametrize("grid,order", [(5, 2), (8, 3), (50, 3), (3, 4)])
def test_derivatives_match_scipy(grid, order):
    b = BSplineBasis(grid, order)
    x = np.linspace(b.lo, b.hi - 1e-9, 257)
    D = b.derivative_from_lower(b.lower(x))
    for i in range(b.n_basis):
        c = np.zeros(b.n_basis)
        c[i] = 1.0
        ref = np.nan_to_num(BSpline(b.knots, c, order - 1,
                                    extrapolate=False).derivative()(x))
        assert np.allclose(D[:, i], ref, atol=1e-10)


def test_order_one_derivative_is_zero():
    b = BSplineBasis(6, 1)
    x = np.linspace(b.lo, b.hi, 50)
    assert np.array_equal(b.derivative_from_lower(b.lower(x)), np.zeros((50, 6)))



@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_basis_split_matches_full_recursion(order):
    b = BSplineBasis(6, order)
    x = np.concatenate([np.linspace(b.lo, b.hi, 97), [b.hi, b.lo, b.hi]])
    # points clamped onto the interval's ends, and raw ones beyond it
    x = np.concatenate([x, np.clip([-3.0, 2.0], b.lo, b.hi), [-3.0, 2.0]])
    lower = b.lower(x)
    design = b.design_from_lower(lower, x)
    assert design.tobytes() == full_orders(b, x, order).tobytes()
    assert b.design_matrix(x).tobytes() == design.tobytes()
    assert b.derivative_from_lower(lower).tobytes() == \
        full_derivative(b, x).tobytes()


@pytest.mark.parametrize("grid", [1, 5, 8])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_window_matches_full_recursion_at_every_knot(grid, order):
    # the interval's ends, every knot and the float just below each, the
    # knot span's own ends and points beyond them, and NaN: a zero outside
    # a window is +0.0 in the full recursion, and a NaN row stays NaN
    b = BSplineBasis(grid, order)
    t = b.knots
    x = np.concatenate([[b.lo, b.hi, np.nextafter(b.hi, -np.inf)], t,
                        np.nextafter(t, -np.inf),
                        [t[0] - 0.5, t[-1] + 0.5, -40.0, 40.0, np.nan]])
    design = b.design_matrix(x)
    assert design.tobytes() == full_orders(b, x, order).tobytes()
    assert b.derivative_from_lower(b.lower(x)).tobytes() == \
        full_derivative(b, x).tobytes()
    beyond = ((x < t[0]) | (x >= t[-1])) & (x != b.hi)
    assert beyond[-5:-1].all() and not design[beyond].any()
    assert np.isnan(design[-1]).all() == (order > 1)
    assert not np.signbit(design[design == 0.0]).any()


def test_window_of_an_infinite_input_is_nan_like_the_full_recursion():
    # (inf - t) * 0 is a NaN whose bits differ from np.nan's
    b = BSplineBasis(5, 3)
    x = np.array([-np.inf, 0.2, np.inf])
    with np.errstate(invalid="ignore"):
        want = full_orders(b, x, 3), full_derivative(b, x)
        got = b.design_matrix(x), b.derivative_from_lower(b.lower(x))
    for w, g in zip(want, got):
        assert g.tobytes() == w.tobytes()


def test_local_support():
    # an order-k basis function spans exactly k cells
    b = BSplineBasis(10, 3)
    x = np.linspace(b.lo, b.hi, 2001)
    D = b.design_matrix(x)
    h = (b.hi - b.lo) / b.grid_size
    for i in range(b.n_basis):
        support = x[D[:, i] > 1e-12]
        assert support.size > 0
        assert support.max() - support.min() <= 3 * h + 1e-9


def test_validation():
    with pytest.raises(ValueError):
        BSplineBasis(0, 3)
    with pytest.raises(ValueError):
        BSplineBasis(5, 0)
    with pytest.raises(ValueError):
        BSplineBasis(5, 3, lo=1.0, hi=-1.0)
