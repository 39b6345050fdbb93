"""Elastic-net penalty: closed-form prox against a grid-search oracle."""

import numpy as np
import pytest

from hubertune import ElasticNet


def prox(pen: ElasticNet, v, step: float) -> np.ndarray:
    """pen.prox_in_place on a float copy of v."""
    out = np.array(v, dtype=float)
    pen.prox_in_place(out, step)
    return out


def grid_prox_scalar(pen: ElasticNet, v: float, step: float) -> float:
    """Minimize (b - v)^2/(2*step) + g(b) over a fine grid, then refine.

    Independent of the soft-threshold closed form: pure search over the
    scalar objective, with two rounds of refinement around the best point.
    """

    def obj(b):
        return (b - v) ** 2 / (2 * step) + pen.lam * np.abs(b) + 0.5 * pen.tau * b**2

    lo, hi = -abs(v) - 1.0, abs(v) + 1.0
    for _ in range(3):
        grid = np.linspace(lo, hi, 20_001)
        # Always include exactly zero: the prox may land there.
        grid = np.append(grid, 0.0)
        vals = obj(grid)
        best = grid[int(np.argmin(vals))]
        width = (hi - lo) / 20_000
        lo, hi = best - 2 * width, best + 2 * width
    return float(best)


class TestValidation:
    def test_negative_lam(self):
        with pytest.raises(ValueError):
            ElasticNet(lam=-0.1, tau=0.0)

    def test_negative_tau(self):
        with pytest.raises(ValueError):
            ElasticNet(lam=0.0, tau=-0.1)

    def test_nonfinite(self):
        with pytest.raises(ValueError):
            ElasticNet(lam=float("nan"), tau=0.0)
        with pytest.raises(ValueError):
            ElasticNet(lam=0.0, tau=float("inf"))


class TestValue:
    def test_hand_computed(self):
        pen = ElasticNet(lam=2.0, tau=4.0)
        b = np.array([1.0, -3.0])
        # 2*(1+3) + 2*(1+9) = 8 + 20 = 28
        assert pen.value(b) == pytest.approx(28.0, rel=1e-15)

    def test_zero_at_origin(self):
        assert ElasticNet(lam=5.0, tau=5.0).value(np.zeros(4)) == 0.0


class TestProx:
    def test_soft_threshold_hand_values(self):
        pen = ElasticNet(lam=1.0)
        v = np.array([3.0, -3.0, 0.5, -0.5, 0.0])
        out = prox(pen, v, 1.0)
        np.testing.assert_allclose(out, [2.0, -2.0, 0.0, 0.0, 0.0], atol=0)

    def test_ridge_shrinkage_hand_values(self):
        pen = ElasticNet(tau=2.0)
        v = np.array([3.0, -6.0])
        out = prox(pen, v, 0.5)
        # Divide by 1 + step*tau = 2.
        np.testing.assert_allclose(out, [1.5, -3.0], atol=0)

    def test_matches_grid_search_oracle(self):
        """Closed form against the scalar grid-search oracle at 1e-5."""
        rng = np.random.default_rng(21)
        for _ in range(40):
            pen = ElasticNet(
                lam=float(rng.uniform(0.0, 2.0)), tau=float(rng.uniform(0.0, 2.0))
            )
            v = float(rng.normal(scale=3.0))
            step = float(rng.uniform(0.05, 5.0))
            closed = float(prox(pen, v, step))
            oracle = grid_prox_scalar(pen, v, step)
            assert abs(closed - oracle) <= 1e-5

    def test_exact_zeros(self):
        """Inputs below the threshold map to exact floating-point zero."""
        pen = ElasticNet(lam=1.0, tau=0.5)
        rng = np.random.default_rng(22)
        step = 0.8
        v = rng.uniform(-step * pen.lam, step * pen.lam, size=1000)
        out = prox(pen, v, step)
        assert np.all(out == 0.0)

    def test_componentwise(self):
        """Vector prox equals the scalar prox applied per component."""
        pen = ElasticNet(lam=0.3, tau=0.9)
        rng = np.random.default_rng(23)
        v = rng.normal(size=50)
        step = 1.7
        out = prox(pen, v, step)
        each = np.array([float(prox(pen, np.array([x]), step)[0]) for x in v])
        np.testing.assert_array_equal(out, each)

    def test_prox_optimality_subgradient(self):
        """(v - b)/step is in the subdifferential of g at b = prox(v)."""
        pen = ElasticNet(lam=0.6, tau=1.1)
        rng = np.random.default_rng(24)
        v = rng.normal(scale=2.0, size=200)
        step = 0.9
        b = prox(pen, v, step)
        grad = (v - b) / step - pen.tau * b
        nz = b != 0.0
        np.testing.assert_allclose(grad[nz], pen.lam * np.sign(b[nz]), atol=1e-12)
        assert np.all(np.abs(grad[~nz]) <= pen.lam + 1e-12)
