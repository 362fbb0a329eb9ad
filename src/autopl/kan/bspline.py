"""Uniform B-spline bases on a fixed interval.

The basis of order k (k = 1 is piecewise constant) over a grid of
`grid_size` cells uses the grid's nodes extended by k - 1 equally
spaced knots on each side, giving grid_size + k - 1 basis functions
that sum to one everywhere inside the interval.  At any x at most k of
them are non-zero, those of the knot cell holding x, so the recursion
runs on that window alone and scatters it into the full matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class Window(NamedTuple):
    """Each input's knot cell and, one row per function, the values of
    the w basis functions cell - w + 1 .. cell that can be non-zero
    there.  An input beyond the knot span has cell 0 and a window of
    zeros, NaN at orders above 1 where the input is not finite."""

    cell: np.ndarray
    values: np.ndarray


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
        # per recursion order q, four (q, cells) tables over the window
        # of functions i = c - q + 1 .. c of each knot cell c: t_i,
        # t_{i+q-1} - t_i, t_{i+q} and t_{i+q} - t_{i+1}, from the knots
        # extended `order` further on each side (the same values where
        # they overlap), so that a window reaching past the basis stays
        # finite
        t = self.lo + h * np.arange(-ext - self.order,
                                    self.grid_size + ext + 1 + self.order)
        cells = np.arange(knots.size - 1) + self.order
        tables = {}
        for q in range(2, self.order + 1):
            i = cells + np.arange(1 - q, 1)[:, None]
            tables[q] = (t[i], t[i + q - 1] - t[i], t[i + q],
                         t[i + q] - t[i + 1])
        object.__setattr__(self, "_tables", tables)

    @property
    def n_basis(self) -> int:
        return self.grid_size + self.order - 1

    def lower(self, x: np.ndarray) -> Window:
        """The order-(k-1) window at x (order 1 at k = 1), from which both
        the design and the derivative matrix follow."""
        x = np.asarray(x, dtype=float)
        t = self.knots
        cell = np.searchsorted(t, x, side="right") - 1
        # the right endpoint belongs to the last cell inside the interval
        cell[x == self.hi] = self.n_basis - 1
        # beyond the knot span (NaN included) no order-1 value is one
        inside = (cell >= 0) & (cell < t.size - 1)
        values = inside.astype(float)[None, :]
        if not inside.all():
            cell = np.where(inside, cell, 0)
        for q in range(2, self.order):
            values = self._raise(values, cell, x, q)
        return Window(cell, values)

    def _raise(self, values: np.ndarray, cell: np.ndarray, x: np.ndarray,
               q: int) -> np.ndarray:
        """One step of the two-term recursion, order q - 1 to order q, on
        the window of functions i = cell - q + 1 .. cell:
        B_i = (x - t_i) / (t_{i+q-1} - t_i) * B'_i
              + (t_{i+q} - x) / (t_{i+q} - t_{i+1}) * B'_{i+1},
        with the order-(q-1) values B' just outside the window zero."""
        t_i, span_l, t_iq, span_r = (np.take(table, cell, axis=1)
                                     for table in self._tables[q])
        b = np.zeros((q + 1, x.shape[0]))
        b[1:-1] = values
        return (x - t_i) / span_l * b[:-1] + (t_iq - x) / span_r * b[1:]

    def _scatter(self, cell: np.ndarray, values: np.ndarray) -> np.ndarray:
        """The (n, n_basis) matrix holding each input's window of the
        last order at columns cell - k + 1 .. cell, zero elsewhere; a row
        whose window is NaN is NaN throughout, as the full recursion's is."""
        k, n = values.shape
        out = np.zeros((n, self.n_basis))
        offsets = np.arange(1 - k, 1)[:, None]
        flat = cell + np.arange(0, n * self.n_basis, self.n_basis) + offsets
        if n and cell.min() >= k - 1 and cell.max() <= self.n_basis - 1:
            out.ravel()[flat] = values
        else:
            cols = cell + offsets
            keep = (cols >= 0) & (cols < self.n_basis)
            out.ravel()[flat[keep]] = values[keep]
        if np.isnan(values.sum()):
            bad = np.isnan(values[0])
            out[bad] = values[0, bad, None]
        return out

    def design_from_lower(self, lower: Window, x: np.ndarray) -> np.ndarray:
        """Design matrix at x from `lower(x)`: the recursion's last step."""
        values = lower.values
        if self.order > 1:
            values = self._raise(values, lower.cell,
                                 np.asarray(x, dtype=float), self.order)
        return self._scatter(lower.cell, values)

    def derivative_from_lower(self, lower: Window) -> np.ndarray:
        """Derivative matrix at x from `lower(x)`: over the window of
        functions i = cell - k + 1 .. cell,
        (k - 1) * (B'_i / (t_{i+k-1} - t_i) - B'_{i+1} / (t_{i+k} - t_{i+1}))."""
        k = self.order
        if k == 1:
            return np.zeros((lower.cell.shape[0], self.n_basis))
        span_l, span_r = (np.take(self._tables[k][r], lower.cell, axis=1)
                          for r in (1, 3))
        b = np.zeros((k + 1, lower.cell.shape[0]))
        b[1:-1] = lower.values
        return self._scatter(lower.cell,
                             (k - 1) * (b[:-1] / span_l - b[1:] / span_r))

    def design_matrix(self, x: np.ndarray) -> np.ndarray:
        """Basis values at x, shape (len(x), n_basis)."""
        return self.design_from_lower(self.lower(x), x)
