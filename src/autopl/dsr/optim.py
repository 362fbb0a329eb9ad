"""Minimal adaptive optimizer for the policy parameters."""

from __future__ import annotations

import numpy as np

_BETA1 = 0.9  # decay of the first-moment estimate
_BETA2 = 0.999  # decay of the second-moment estimate
_EPS = 1e-8  # keeps the step finite where the second moment is zero


class Adam:
    """Per-parameter adaptive steps with bias-corrected moments.

    Updates run in a fixed parameter-name order so training stays
    deterministic for a given seed.
    """

    def __init__(self, learning_rate: float):
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = float(learning_rate)
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray]) -> None:
        """Apply one descent step of the given gradients in place."""
        self.t += 1
        c1 = 1.0 - _BETA1 ** self.t
        c2 = 1.0 - _BETA2 ** self.t
        for name in sorted(params):
            g = grads[name]
            if name not in self._m:
                self._m[name] = np.zeros_like(g)
                self._v[name] = np.zeros_like(g)
            m = self._m[name]
            v = self._v[name]
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * g * g
            params[name] -= self.learning_rate * (m / c1) / (np.sqrt(v / c2) + _EPS)
