"""Regression problem data: an n x p design and an n-vector response."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def largest_singular_value(X: np.ndarray) -> float:
    """Top singular value of X, from the top eigenvalue of its smaller Gram
    matrix (X X' when n < p, X'X otherwise)."""
    G = X @ X.T if X.shape[0] < X.shape[1] else X.T @ X
    return float(np.sqrt(max(np.linalg.eigvalsh(G)[-1], 0.0)))


@dataclass(frozen=True)
class Dataset:
    """Immutable (by convention) design/response pair.

    Validates shape and finiteness on construction; arrays are converted to
    float64 C-contiguous form (copied only when they are not already) so
    later code can rely on dtype and layout. The design [1 X] of intercept
    fits and the top singular values of X and of [1 X], which set the
    solver's step size, are computed on first read and kept, so every fit on
    one dataset shares them; X must therefore not be modified in place after
    the first fit.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.X, dtype=float))
        y = np.ascontiguousarray(np.asarray(self.y, dtype=float)).ravel()
        if X.ndim != 2:
            raise ValueError(f"design must be 2-D, got shape {X.shape}")
        n, p = X.shape
        if n < 1 or p < 1:
            raise ValueError("design needs n >= 1 rows and p >= 1 columns")
        if y.shape[0] != n:
            raise ValueError(
                f"response length {y.shape[0]} does not match design rows {n}"
            )
        if not np.all(np.isfinite(X)):
            raise ValueError("design contains non-finite entries")
        if not np.all(np.isfinite(y)):
            raise ValueError("response contains non-finite entries")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @cached_property
    def sigma_max(self) -> float:
        return largest_singular_value(self.X)

    @cached_property
    def X_with_intercept(self) -> np.ndarray:
        """The read-only design [1 X] of every intercept fit."""
        Xa = np.hstack([np.ones((self.n, 1)), self.X])
        Xa.flags.writeable = False
        return Xa

    @cached_property
    def sigma_max_with_intercept(self) -> float:
        return largest_singular_value(self.X_with_intercept)
