"""The full B-spline recursion over every basis function, kept as the
reference that `BSplineBasis`'s window evaluation must match byte for
byte."""

import numpy as np


def full_orders(basis, x, up_to):
    """Order-1 indicators raised to order `up_to` over every function."""
    t = basis.knots
    x = np.asarray(x, dtype=float)
    b = ((x[:, None] >= t[None, :-1]) & (x[:, None] < t[None, 1:])).astype(float)
    # the right endpoint belongs to the last cell inside the interval
    at_hi = x == basis.hi
    if np.any(at_hi):
        b[at_hi] = 0.0
        b[at_hi, basis.order - 1 + basis.grid_size - 1] = 1.0
    for q in range(2, up_to + 1):
        span_l = t[q - 1:-1] - t[:-q]
        span_r = t[q:] - t[1:-q + 1]
        left = (x[:, None] - t[None, :-q]) / span_l * b[:, :-1]
        right = (t[None, q:] - x[:, None]) / span_r * b[:, 1:]
        b = left + right
    return b


def full_derivative(basis, x):
    """Derivative matrix from a separately computed order-(k-1) basis."""
    x = np.asarray(x, dtype=float)
    t, k = basis.knots, basis.order
    if k == 1:
        return np.zeros((x.shape[0], basis.n_basis))
    low = full_orders(basis, x, k - 1)
    return (k - 1) * (low[:, :-1] / (t[k - 1:-1] - t[:-k])
                      - low[:, 1:] / (t[k:] - t[1:-k + 1]))
