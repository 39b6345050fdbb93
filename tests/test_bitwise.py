"""The solver's lean per-iteration pieces against the plain numpy formulas
they replace (tests/oracles.py), bit for bit: the loss mean, score and prox,
the square loss as the Huber loss at scale inf, the elastic-net value and
its prox written in place, and the KKT gap. Every fit depends on these
being exact, since one changed rounding can move an iteration count."""

import math
import warnings

import numpy as np
import pytest

from hubertune import ElasticNet, HuberLoss
from hubertune.solver import _kkt_score_gap

from oracles import (
    elastic_net_prox,
    elastic_net_value,
    huber_prox,
    huber_psi,
    kkt_score_gap,
    mean_loss,
)

# The large magnitudes overflow on purpose, in the oracles as in the code.
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning"
)

SCALE = 0.75


def same_bits(a, b) -> bool:
    """Equal to the last bit, so -0.0 differs from 0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def residuals(seed):
    """Random residuals plus the edge values: the Huber scale itself and its
    neighbours, signed zeros, tiny and large magnitudes."""
    rng = np.random.default_rng(seed)
    edges = [SCALE, -SCALE, np.nextafter(SCALE, 0), np.nextafter(SCALE, 1),
             -np.nextafter(SCALE, 1), 0.0, -0.0, 5e-324, -1e-200, 1e150, -1e300]
    return np.concatenate([rng.standard_normal(97) * 2.0, edges])


SQUARE = HuberLoss(scale=math.inf)
LOSSES = [SQUARE, HuberLoss(scale=SCALE), HuberLoss(scale=1e150)]
LOSS_IDS = ["square", "huber", "huber-large-scale"]


class TestLossMeanAndScore:
    @pytest.mark.parametrize("loss", LOSSES, ids=LOSS_IDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mean_equals_np_mean_of_value(self, loss, seed):
        r = residuals(seed)
        f, _ = loss.mean_value_and_psi(r)
        assert f == mean_loss(loss, r)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_moderate_residuals(self, seed):
        r = residuals(seed)[:-2]  # a finite mean
        for loss in LOSSES:
            f, _ = loss.mean_value_and_psi(r)
            assert np.isfinite(f) and f == mean_loss(loss, r)

    @pytest.mark.parametrize("loss", LOSSES[1:], ids=LOSS_IDS[1:])
    def test_huber_score_equals_np_clip(self, loss):
        r = residuals(3)
        _, ps = loss.mean_value_and_psi(r)
        assert same_bits(ps, huber_psi(r, loss.scale))
        assert same_bits(ps, loss.psi(r))

    def test_square_score_equals_psi(self):
        r = residuals(4)
        _, ps = SQUARE.mean_value_and_psi(r)
        assert same_bits(ps, SQUARE.psi(r))
        assert ps is not r


def square_inputs(seed):
    """Random values with signed zeros, subnormals and large magnitudes
    whose squares stay finite."""
    rng = np.random.default_rng(seed)
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e150, -1e154, 3e-200]
    magnitudes = 10.0 ** rng.integers(-3, 4, 91)
    return np.concatenate([rng.standard_normal(91) * magnitudes, edges])


class TestSquareAsInfiniteScale:
    """HuberLoss(inf) against the formulas of the square loss rho = u^2/2."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mean_and_score(self, seed):
        u = square_inputs(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f, ps = SQUARE.mean_value_and_psi(u)
            pp = SQUARE.psi_prime(u)
        v = 0.5 * u
        v *= u
        assert f == float(np.add.reduce(v) / u.shape[0])
        assert np.array_equal(ps, u + 0.0)
        assert same_bits(pp, np.ones_like(u))

    @pytest.mark.parametrize("t", [1e-3, 0.5, 1.0, 7.25])
    def test_prox_is_the_ridge_shrink(self, t):
        u = square_inputs(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = SQUARE.prox(u, t)
        assert same_bits(z, u / (1.0 + t))


class TestHuberProx:
    @pytest.mark.parametrize("scale", [SCALE, 2.0, 1e150])
    @pytest.mark.parametrize("t", [1e-3, 0.5, 7.25])
    def test_copysign_form_equals_the_sign_form(self, scale, t):
        """u - copysign(t*scale, u) and u - t*scale*sign(u) agree to the
        bit, signed zeros and both sides of the branch boundary included."""
        edge = (1.0 + t) * scale
        u = np.concatenate([
            square_inputs(4),
            [edge, -edge, np.nextafter(edge, 0), np.nextafter(edge, np.inf),
             -np.nextafter(edge, np.inf), 4.0 * scale, -4.0 * scale],
        ])
        assert same_bits(HuberLoss(scale).prox(u, t), huber_prox(u, t, scale))


PENALTIES = [
    ElasticNet(lam=0.3, tau=0.2),
    ElasticNet(lam=0.3, tau=0.0),
    ElasticNet(lam=0.0, tau=0.2),
    ElasticNet(lam=0.0, tau=0.0),
]
PENALTY_IDS = ["elastic-net", "lasso", "ridge", "none"]


def prox_inputs(step, lam):
    rng = np.random.default_rng(11)
    thr = step * lam
    edges = [0.0, -0.0, thr, -thr, np.nextafter(thr, 1), -np.nextafter(thr, 0),
             1e300, -1e300, 5e-324]
    return np.concatenate([rng.standard_normal(50), edges])


class TestElasticNet:
    @pytest.mark.parametrize("penalty", PENALTIES, ids=PENALTY_IDS)
    @pytest.mark.parametrize("step", [0.5, 1.0, 3.7])
    def test_equals_the_formula(self, penalty, step):
        v = prox_inputs(step, penalty.lam)
        expected = elastic_net_prox(penalty, v, step)
        out = v.copy()
        penalty.prox_in_place(out, step)
        assert same_bits(out, expected)

    @pytest.mark.parametrize("penalty", PENALTIES, ids=PENALTY_IDS)
    def test_value_equals_the_formula(self, penalty):
        b = prox_inputs(1.0, penalty.lam)
        for v in (b[:-3], b, b[:50].reshape(5, 10)):
            assert same_bits(penalty.value(v), elastic_net_value(penalty, v))

    def test_writes_through_a_view(self):
        penalty = PENALTIES[0]
        w = np.concatenate([[5.0], prox_inputs(0.5, penalty.lam)])
        expected = elastic_net_prox(penalty, w[1:], 0.5)
        penalty.prox_in_place(w[1:], 0.5)
        assert w[0] == 5.0 and same_bits(w[1:], expected)


def gap_inputs(seed, lam):
    """Scores and points with exact zeros (both signs) in w, scores exactly
    at +/- lam, and large magnitudes."""
    rng = np.random.default_rng(seed)
    p = 60
    w = rng.standard_normal(p) * (rng.random(p) < 0.4)
    w[:4] = [0.0, -0.0, 1e300, -1e-300]
    g = rng.standard_normal(p) * 0.5
    g[4:10] = [lam, -lam, np.nextafter(lam, 1), 0.0, -0.0, 1e300]
    w[4:10] = 0.0
    return g, w


class TestKktGap:
    @pytest.mark.parametrize("penalty", PENALTIES, ids=PENALTY_IDS)
    @pytest.mark.parametrize("off", [0, 1], ids=["no-intercept", "intercept"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_the_where_formula(self, penalty, off, seed):
        g, w = gap_inputs(seed, penalty.lam)
        assert _kkt_score_gap(g, w, penalty, off) == kkt_score_gap(g, w, penalty, off)

    @pytest.mark.parametrize("off", [0, 1], ids=["no-intercept", "intercept"])
    def test_moderate_inputs(self, off):
        """Without the 1e300 entries the gap is an ordinary number."""
        penalty = PENALTIES[0]
        g, w = gap_inputs(2, penalty.lam)
        g[9], w[2] = 0.25, 0.5
        gap = _kkt_score_gap(g, w, penalty, off)
        assert 0.0 < gap < 10.0 and gap == kkt_score_gap(g, w, penalty, off)

    def test_intercept_term_can_be_the_worst(self):
        penalty = PENALTIES[1]
        g, w = np.array([4.0, 0.1, 0.2]), np.array([1.0, 0.0, 0.5])
        assert _kkt_score_gap(g, w, penalty, 1) == kkt_score_gap(g, w, penalty, 1) == 4.0

    @pytest.mark.parametrize("penalty", PENALTIES, ids=PENALTY_IDS)
    @pytest.mark.parametrize("off", [0, 1], ids=["no-intercept", "intercept"])
    def test_infinite_point(self, penalty, off):
        """An infinite coordinate gives what the formula gives: NaN at tau = 0
        (0 * inf), an infinite gap at tau > 0."""
        g, w = gap_inputs(3, penalty.lam)
        w[2] = np.inf
        got, want = _kkt_score_gap(g, w, penalty, off), kkt_score_gap(g, w, penalty, off)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got) if penalty.tau == 0.0 else got == np.inf
