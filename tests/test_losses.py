"""Loss functions: closed forms against independent numerical oracles.

The prox closed forms are checked against a bisection solver for the scalar
equation z + t*psi(z) = u, and psi / psi' are checked against finite
differences of the loss value (tests/oracles.py) and psi away from the
Huber kink. The square loss is HuberLoss(scale=inf).
"""

import math

import numpy as np
import pytest

from hubertune import HuberLoss, make_loss

from oracles import huber_value


def bisect_prox(loss, u: float, t: float, tol: float = 1e-12) -> float:
    """Solve z + t*psi(z) = u by bisection; independent of the closed form.

    phi(z) = z + t*psi(z) is strictly increasing (psi is nondecreasing and
    the identity term is strict), so the root is unique and bracketed by
    [u - t*|psi(u)| - 1, u + t*|psi(u)| + 1].
    """

    def phi(z):
        return z + t * float(loss.psi(z)) - u

    lo = u - t * abs(float(loss.psi(u))) - 1.0
    hi = u + t * abs(float(loss.psi(u))) + 1.0
    assert phi(lo) < 0 < phi(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi(mid) <= 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


class TestSquareLoss:
    def test_value_psi_closed_forms(self):
        loss = make_loss("square")
        u = np.array([-3.0, -0.5, 0.0, 1.25, 4.0])
        np.testing.assert_allclose(huber_value(u, loss.scale), 0.5 * u * u, rtol=0, atol=0)
        np.testing.assert_allclose(loss.psi(u), u, rtol=0, atol=0)
        np.testing.assert_allclose(loss.psi_prime(u), np.ones_like(u))

    def test_prox_matches_bisection(self):
        loss = make_loss("square")
        rng = np.random.default_rng(1)
        for _ in range(50):
            u = float(rng.normal(scale=5.0))
            t = float(rng.uniform(0.01, 10.0))
            z = float(loss.prox(u, t))
            z_oracle = bisect_prox(loss, u, t)
            assert abs(z - z_oracle) <= 1e-10
            assert abs(z + t * float(loss.psi(z)) - u) <= 1e-12

    def test_prox_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            make_loss("square").prox(1.0, 0.0)
        with pytest.raises(ValueError):
            make_loss("square").prox(1.0, -1.0)


class TestHuberLoss:
    def test_scale_validation(self):
        with pytest.raises(ValueError):
            HuberLoss(scale=0.0)
        with pytest.raises(ValueError):
            HuberLoss(scale=-1.0)
        with pytest.raises(ValueError):
            HuberLoss(scale=float("nan"))
        # scale inf is the square loss; only the input boundary refuses it.
        assert HuberLoss(scale=float("inf")).scale == math.inf
        with pytest.raises(ValueError):
            make_loss("huber", huber_scale=float("inf"))

    def test_value_piecewise(self):
        def value(u):
            return float(huber_value(u, 1.5))

        # Quadratic regime.
        assert value(1.0) == pytest.approx(0.5, abs=0)
        # Exactly at the transition both branches agree.
        assert value(1.5) == pytest.approx(0.5 * 1.5**2, abs=0)
        # Linear regime: Lambda*|u| - Lambda^2/2.
        assert value(4.0) == pytest.approx(1.5 * 4.0 - 0.5 * 1.5**2, abs=0)
        assert value(-4.0) == value(4.0)

    def test_psi_properties_random(self):
        """Score properties over 10^4 random (u, scale) pairs."""
        rng = np.random.default_rng(7)
        u = rng.normal(scale=3.0, size=10_000)
        scales = rng.uniform(0.1, 5.0, size=10_000)
        for s in np.unique(np.round(scales[:20], 3)):
            loss = HuberLoss(scale=float(s))
            psi = loss.psi(u)
            # Bounded by the scale.
            assert np.max(np.abs(psi)) <= s + 0.0
            # Identity inside the quadratic regime.
            inside = np.abs(u) <= s
            np.testing.assert_array_equal(psi[inside], u[inside])
            # Odd and sign-preserving.
            np.testing.assert_allclose(loss.psi(-u), -psi, rtol=0, atol=0)
            assert np.all(np.sign(psi) == np.sign(u))
            # Monotone nondecreasing.
            order = np.argsort(u)
            assert np.all(np.diff(psi[order]) >= 0)
            # psi' is the indicator of the quadratic regime.
            pp = loss.psi_prime(u)
            assert set(np.unique(pp)) <= {0.0, 1.0}
            np.testing.assert_array_equal(pp, (np.abs(u) <= s).astype(float))

    def test_psi_is_derivative_of_value(self):
        """Central differences of value match psi away from the kink."""
        loss = HuberLoss(scale=1.0)
        rng = np.random.default_rng(3)
        u = rng.normal(scale=2.0, size=500)
        u = u[np.abs(np.abs(u) - loss.scale) > 1e-3]
        h = 1e-6
        fd = (huber_value(u + h, loss.scale) - huber_value(u - h, loss.scale)) / (2 * h)
        np.testing.assert_allclose(fd, loss.psi(u), rtol=1e-6, atol=1e-8)

    def test_psi_prime_is_derivative_of_psi(self):
        """Central differences of psi match psi' away from the kink."""
        loss = HuberLoss(scale=1.0)
        rng = np.random.default_rng(4)
        u = rng.normal(scale=2.0, size=500)
        u = u[np.abs(np.abs(u) - loss.scale) > 1e-3]
        h = 1e-7
        fd = (loss.psi(u + h) - loss.psi(u - h)) / (2 * h)
        np.testing.assert_allclose(fd, loss.psi_prime(u), rtol=0, atol=1e-6)

    def test_prox_matches_bisection(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            scale = float(rng.uniform(0.1, 4.0))
            loss = HuberLoss(scale=scale)
            u = float(rng.normal(scale=5.0))
            t = float(rng.uniform(0.01, 10.0))
            z = float(loss.prox(u, t))
            z_oracle = bisect_prox(loss, u, t)
            assert abs(z - z_oracle) <= 1e-10
            # The defining equation holds exactly.
            assert abs(z + t * float(loss.psi(z)) - u) <= 1e-12

    def test_prox_branch_boundary_continuous(self):
        loss = HuberLoss(scale=2.0)
        t = 0.7
        u = (1.0 + t) * loss.scale
        # Both branches give exactly z = Lambda at the boundary.
        assert float(loss.prox(u, t)) == pytest.approx(loss.scale, rel=1e-15)
        below = float(loss.prox(u - 1e-9, t))
        above = float(loss.prox(u + 1e-9, t))
        assert abs(below - above) <= 1e-8

    def test_prox_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            HuberLoss(scale=1.0).prox(1.0, 0.0)


class TestMakeLoss:
    def test_square(self):
        assert make_loss("square") == HuberLoss(scale=math.inf)
        assert make_loss("SQUARE") == HuberLoss(scale=math.inf)

    def test_huber(self):
        loss = make_loss("huber", huber_scale=2.5)
        assert isinstance(loss, HuberLoss)
        assert loss.scale == 2.5

    def test_huber_requires_scale(self):
        with pytest.raises(ValueError):
            make_loss("huber")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_loss("absolute")
