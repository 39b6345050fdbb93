"""The Huber loss: score psi, derivative psi', mean loss and scalar prox.

One class covers both losses: the square loss is the Huber loss with scale
Lambda = inf. Either way psi' takes values in {0, 1}, which the closed-form
sensitivity expressions downstream rely on. Every operation is a pure
function of immutable inputs and accepts scalars or numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HuberLoss:
    """Huber loss with transition scale Lambda > 0.

    rho(u) = u^2/2 for |u| <= Lambda, Lambda*|u| - Lambda^2/2 beyond; at
    Lambda = inf this is the square loss, with psi(u) = u and psi' = 1.
    The score psi clips at +/- Lambda; psi' is the indicator of the
    quadratic regime, with the closed interval |u| <= Lambda mapping to 1
    (any fixed convention at the kink is valid almost everywhere, since
    continuous noise hits it with probability zero).
    """

    scale: float

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("Huber scale must be positive")

    def psi(self, u):
        """Score function: sign(u) * min(|u|, Lambda)."""
        u = np.asarray(u, dtype=float)
        return np.clip(u, -self.scale, self.scale)

    def psi_prime(self, u):
        """1 on the quadratic regime |u| <= Lambda, 0 outside."""
        u = np.asarray(u, dtype=float)
        return (np.abs(u) <= self.scale).astype(float)

    def mean_value_and_psi(self, u: np.ndarray):
        """(mean of rho(u), psi(u)) of a float vector, each bit for bit.

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
        |u| = (1+t)*Lambda, where both expressions agree. copysign keeps
        the outer branch free of inf * 0 at Lambda = inf.
        """
        if t <= 0:
            raise ValueError("prox step t must be positive")
        u = np.asarray(u, dtype=float)
        quad = np.abs(u) <= (1.0 + t) * self.scale
        return np.where(quad, u / (1.0 + t), u - np.copysign(t * self.scale, u))


def make_loss(kind: str, huber_scale: float | None = None) -> HuberLoss:
    """Build a loss from its name: 'square' is HuberLoss(inf), and 'huber'
    requires a positive finite scale."""
    kind = kind.lower()
    if kind == "square":
        return HuberLoss(scale=math.inf)
    if kind == "huber":
        if huber_scale is None:
            raise ValueError("huber loss requires a scale")
        scale = float(huber_scale)
        if not 0 < scale < math.inf:
            raise ValueError("Huber scale must be a positive finite real")
        return HuberLoss(scale)
    raise ValueError(f"unknown loss kind: {kind!r}")
