"""Convex penalties: elastic net family (lasso and ridge as special cases).

The penalty g(b) = lam * ||b||_1 + (tau/2) * ||b||_2^2 is convex and
minimized at zero; with tau > 0 it is tau-strongly convex. Its prox has the
componentwise closed form used by the solver, and produces exact zeros —
those zeros define the active set downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ElasticNet:
    """g(b) = lam * ||b||_1 + (tau/2) * ||b||_2^2 with lam, tau >= 0."""

    lam: float = 0.0
    tau: float = 0.0

    def __post_init__(self):
        if self.lam < 0 or not np.isfinite(self.lam):
            raise ValueError("l1 weight lam must be a nonnegative finite real")
        if self.tau < 0 or not np.isfinite(self.tau):
            raise ValueError("ridge weight tau must be a nonnegative finite real")

    def value(self, b) -> float:
        b = np.asarray(b, dtype=float)
        # np.add.reduce over all axes is np.sum without its Python layer.
        l1 = np.add.reduce(np.abs(b), axis=None)
        return float(self.lam * l1 + 0.5 * self.tau * np.add.reduce(b * b, axis=None))

    def prox(self, v, step: float):
        """argmin_b ||b - v||^2 / (2*step) + g(b), componentwise.

        Soft-threshold at step*lam, then shrink by 1/(1 + step*tau). The
        max() produces exact zeros.
        """
        if step <= 0:
            raise ValueError("prox step must be positive")
        out = np.array(v, dtype=float)
        self.prox_in_place(out, step)
        return out[()]

    def prox_in_place(self, v: np.ndarray, step: float) -> None:
        """Overwrite the float array v (a view will do) with prox(v, step)."""
        sign = np.sign(v)
        np.abs(v, out=v)
        v -= step * self.lam
        np.maximum(v, 0.0, out=v)
        v *= sign
        v /= 1.0 + step * self.tau


def ridge(tau: float) -> ElasticNet:
    """Pure ridge penalty (tau/2) * ||b||_2^2."""
    return ElasticNet(lam=0.0, tau=tau)


def lasso(lam: float) -> ElasticNet:
    """Pure l1 penalty lam * ||b||_1."""
    return ElasticNet(lam=lam, tau=0.0)
