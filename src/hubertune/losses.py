"""Robust loss functions: value, score psi, derivative psi', and scalar prox.

Losses form a closed enumeration (square and Huber) so downstream code can
dispatch to closed-form sensitivity expressions. Every operation is a pure
function of immutable inputs and accepts scalars or numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np


@dataclass(frozen=True)
class SquareLoss:
    """Square loss rho(u) = u^2 / 2."""

    def value(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * u * u

    def psi(self, u):
        """Score function psi = rho': the identity."""
        return np.asarray(u, dtype=float) + 0.0

    def psi_prime(self, u):
        """Derivative of psi: identically one."""
        return np.ones_like(np.asarray(u, dtype=float))

    def mean_value_and_psi(self, u: np.ndarray):
        """(mean of value(u), psi(u)) of a float vector, each bit for bit."""
        v = 0.5 * u
        v *= u
        return float(np.add.reduce(v) / u.shape[0]), u + 0.0

    def prox(self, u, t: float):
        """Unique z solving z + t*psi(z) = u, here z = u / (1 + t)."""
        if t <= 0:
            raise ValueError("prox step t must be positive")
        return np.asarray(u, dtype=float) / (1.0 + t)


@dataclass(frozen=True)
class HuberLoss:
    """Huber loss with transition scale Lambda > 0.

    rho(u) = u^2/2 for |u| <= Lambda, Lambda*|u| - Lambda^2/2 beyond.
    The score psi clips at +/- Lambda; psi' is the indicator of the
    quadratic regime, with the closed interval |u| <= Lambda mapping to 1
    (any fixed convention at the kink is valid almost everywhere, since
    continuous noise hits it with probability zero).
    """

    scale: float

    def __post_init__(self):
        if not (self.scale > 0 and np.isfinite(self.scale)):
            raise ValueError("Huber scale must be a positive finite real")

    def value(self, u):
        u = np.asarray(u, dtype=float)
        a = np.abs(u)
        return np.where(
            a <= self.scale,
            0.5 * u * u,
            self.scale * a - 0.5 * self.scale * self.scale,
        )

    def psi(self, u):
        """Score function: sign(u) * min(|u|, Lambda)."""
        u = np.asarray(u, dtype=float)
        return np.clip(u, -self.scale, self.scale)

    def psi_prime(self, u):
        """1 on the quadratic regime |u| <= Lambda, 0 outside."""
        u = np.asarray(u, dtype=float)
        return (np.abs(u) <= self.scale).astype(float)

    def mean_value_and_psi(self, u: np.ndarray):
        """(mean of value(u), psi(u)) of a float vector, each bit for bit.

        psi(u) equals u exactly on the quadratic regime and +/- Lambda
        beyond, where psi(u) * u is Lambda * |u| to the last bit.
        """
        s = self.scale
        ps = np.maximum(u, -s)
        np.minimum(ps, s, out=ps)
        v = 0.5 * u
        v *= u
        linear = ps * u
        linear -= 0.5 * s * s
        np.copyto(v, linear, where=ps != u)
        return float(np.add.reduce(v) / u.shape[0]), ps

    def prox(self, u, t: float):
        """Unique z solving z + t*psi(z) = u.

        Quadratic regime maps u/(1+t) back; past the transition the score
        is constant so z = u - t*Lambda*sign(u). The branch boundary is
        |u| = (1+t)*Lambda, where both expressions agree.
        """
        if t <= 0:
            raise ValueError("prox step t must be positive")
        u = np.asarray(u, dtype=float)
        quad = np.abs(u) <= (1.0 + t) * self.scale
        return np.where(quad, u / (1.0 + t), u - t * self.scale * np.sign(u))


Loss = Union[SquareLoss, HuberLoss]


def make_loss(kind: str, huber_scale: float | None = None) -> Loss:
    """Build a loss from its name; 'huber' requires a positive scale."""
    kind = kind.lower()
    if kind == "square":
        return SquareLoss()
    if kind == "huber":
        if huber_scale is None:
            raise ValueError("huber loss requires a scale")
        return HuberLoss(scale=float(huber_scale))
    raise ValueError(f"unknown loss kind: {kind!r}")
