"""Uniform B-spline bases on a fixed interval.

The basis of order k (k = 1 is piecewise constant) over a grid of
`grid_size` cells uses the grid's nodes extended by k - 1 equally
spaced knots on each side, giving grid_size + k - 1 basis functions
that sum to one everywhere inside the interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class BSplineBasis:
    grid_size: int
    order: int = 3
    lo: float = -1.0
    hi: float = 1.05
    knots: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.grid_size < 1:
            raise ValueError("grid_size must be at least 1")
        if self.order < 1:
            raise ValueError("order must be at least 1")
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")
        h = (self.hi - self.lo) / self.grid_size
        ext = self.order - 1
        knots = self.lo + h * np.arange(-ext, self.grid_size + ext + 1)
        knots.setflags(write=False)
        object.__setattr__(self, "knots", knots)

    @property
    def n_basis(self) -> int:
        return self.grid_size + self.order - 1

    def _orders(self, x: np.ndarray, up_to: int) -> np.ndarray:
        """Raise order-1 indicators to `up_to` by the two-term recursion."""
        t = self.knots
        x = np.asarray(x, dtype=float)
        b = ((x[:, None] >= t[None, :-1]) & (x[:, None] < t[None, 1:])).astype(float)
        # the right endpoint belongs to the last cell inside the interval
        at_hi = x == self.hi
        if np.any(at_hi):
            b[at_hi] = 0.0
            b[at_hi, self.order - 1 + self.grid_size - 1] = 1.0
        for q in range(2, up_to + 1):
            b = self._raise(b, x, q)
        return b

    def _raise(self, b: np.ndarray, x: np.ndarray, q: int) -> np.ndarray:
        """One recursion step: order q - 1 values to order q."""
        t = self.knots
        span_l = t[q - 1:-1] - t[:-q]
        span_r = t[q:] - t[1:-q + 1]
        left = (x[:, None] - t[None, :-q]) / span_l * b[:, :-1]
        right = (t[None, q:] - x[:, None]) / span_r * b[:, 1:]
        return left + right

    def lower(self, x: np.ndarray) -> np.ndarray:
        """Order-(k-1) basis values at x, from which both the design and
        the derivative matrix follow; at order 1, the order-1 values."""
        return self._orders(x, max(self.order - 1, 1))

    def design_from_lower(self, lower: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Design matrix at x from `lower(x)`: the recursion's last step."""
        if self.order == 1:
            return lower
        return self._raise(lower, np.asarray(x, dtype=float), self.order)

    def derivative_from_lower(self, lower: np.ndarray) -> np.ndarray:
        """Derivative matrix at x from `lower(x)`."""
        if self.order == 1:
            return np.zeros((lower.shape[0], self.n_basis))
        t = self.knots
        k = self.order
        d_l = t[k - 1:-1] - t[:-k]
        d_r = t[k:] - t[1:-k + 1]
        return (k - 1) * (lower[:, :-1] / d_l - lower[:, 1:] / d_r)

    def design_matrix(self, x: np.ndarray) -> np.ndarray:
        """Basis values at x, shape (len(x), n_basis)."""
        return self.design_from_lower(self.lower(x), x)
