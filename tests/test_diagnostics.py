"""Distribution diagnostics: KS against a brute-force reference, exact prox
identities, and the standardized square-loss residual statistics."""

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from hubertune import (
    Dataset,
    DegenerateDenominator,
    ElasticNet,
    FitOptions,
    HuberLoss,
    fit,
    histogram_table,
    ks_normal,
    make_loss,
    normal_summary,
    out_of_sample_error,
    qq_table,
    sensitivity_closed_form,
    trace_sigma_A,
)
from hubertune.diagnostics import (
    residual_representation_check,
    square_loss_normality_stat,
    write_histogram_csv,
    write_qq_csv,
    zeta_statistics,
)
from hubertune.simulate import make_covariance, make_signal


def ks_bruteforce(values):
    """O(n^2) sup-distance: check both one-sided gaps at every sample point."""
    x = np.asarray(values, dtype=float)
    n = x.shape[0]
    worst = 0.0
    for xi in x:
        cdf = float(ndtr(xi))
        below = float(np.sum(x <= xi)) / n
        strictly_below = float(np.sum(x < xi)) / n
        worst = max(worst, abs(below - cdf), abs(cdf - strictly_below))
    return worst


def _fit_bundle(seed, loss, penalty, n=40, p=8):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    beta = np.zeros(p)
    beta[: p // 2] = rng.normal(size=p // 2)
    y = X @ beta + 0.6 * rng.standard_normal(n)
    data = Dataset(X=X, y=y)
    result = fit(data, loss, penalty, FitOptions(kkt_tolerance=1e-10))
    return data, result, sensitivity_closed_form(data, loss, penalty, result)


class TestKsNormal:
    def test_single_point_at_zero(self):
        # F_n jumps from 0 to 1 at 0 where Phi = 1/2: distance is exactly 1/2.
        assert ks_normal([0.0]) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 17, 400, 1000])
    def test_matches_bruteforce(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n) * 1.3 + 0.2
        assert ks_normal(x) == pytest.approx(ks_bruteforce(x), abs=1e-12)

    def test_large_normal_sample_is_small(self):
        rng = np.random.default_rng(5)
        assert ks_normal(rng.normal(size=20_000)) <= 0.02

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ks_normal([])


class TestNormalSummary:
    def test_hand_computed_moments(self):
        x = np.array([1.0, 2.0, 3.0, 6.0])
        s = normal_summary(x)
        m = 3.0
        c = x - m
        m2 = np.mean(c**2)
        assert list(s) == ["mean", "variance", "skewness", "excess_kurtosis"]
        assert s["mean"] == pytest.approx(m, abs=1e-14)
        assert s["variance"] == pytest.approx(m2, rel=1e-14)
        assert s["skewness"] == pytest.approx(np.mean(c**3) / m2**1.5, rel=1e-13)
        assert s["excess_kurtosis"] == pytest.approx(
            np.mean(c**4) / m2**2 - 3.0, rel=1e-13
        )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=500)
        a = normal_summary(x)
        permuted = x[rng.permutation(500)]
        b = normal_summary(permuted)
        assert a["mean"] == pytest.approx(b["mean"], abs=1e-13)
        assert a["variance"] == pytest.approx(b["variance"], rel=1e-12)
        assert a["skewness"] == pytest.approx(b["skewness"], rel=1e-10, abs=1e-12)
        assert ks_normal(x) == pytest.approx(ks_normal(permuted), abs=1e-14)

    def test_constant_sample(self):
        s = normal_summary(np.full(10, 2.0))
        assert s["variance"] == 0.0
        assert s["skewness"] == 0.0 and s["excess_kurtosis"] == 0.0


class TestResidualRepresentation:
    @pytest.mark.parametrize("t", [1e-6, 0.17, 1.0, 42.0])
    def test_gaps_tiny_for_any_positive_step(self, t):
        """The prox identity r = prox[t*rho](r + t*psi(r)) holds for all t."""
        data, result, bundle = _fit_bundle(
            2, HuberLoss(scale=0.8), ElasticNet(lam=0.04, tau=0.06)
        )
        gaps, _ = residual_representation_check(result, HuberLoss(scale=0.8), t_hat=t)
        assert np.max(gaps) <= 1e-10

    def test_square_loss_effective_obs(self):
        """Square loss: u = (1 + t) r exactly."""
        data, result, bundle = _fit_bundle(3, make_loss("square"), ElasticNet(tau=0.2))
        t = 0.37
        _, u = residual_representation_check(result, make_loss("square"), t_hat=t)
        np.testing.assert_allclose(u, (1 + t) * result.residuals, rtol=1e-15)

    def test_huber_linear_regime_effective_obs(self):
        """Saturated residuals: u = r + t * scale * sign(r)."""
        loss = HuberLoss(scale=0.5)
        data, result, bundle = _fit_bundle(4, loss, ElasticNet(lam=0.03, tau=0.05))
        saturated = np.abs(result.residuals) > loss.scale
        assert np.any(saturated)
        t = 0.8
        _, u = residual_representation_check(result, loss, t_hat=t)
        r_sat = result.residuals[saturated]
        np.testing.assert_allclose(
            u[saturated],
            r_sat + t * loss.scale * np.sign(r_sat),
            rtol=1e-14,
        )

    def test_nonpositive_step_returns_identity(self):
        data, result, bundle = _fit_bundle(5, make_loss("square"), ElasticNet(tau=0.2))
        gaps, u = residual_representation_check(result, make_loss("square"), t_hat=0.0)
        np.testing.assert_array_equal(gaps, np.zeros(data.n))
        np.testing.assert_array_equal(u, result.residuals)

    @pytest.mark.parametrize("t", [-0.5, np.nan, np.inf])
    def test_negative_or_non_finite_step_raises(self, t):
        data, result, bundle = _fit_bundle(5, make_loss("square"), ElasticNet(tau=0.2))
        with pytest.raises(ValueError, match="t_hat"):
            residual_representation_check(result, make_loss("square"), t_hat=t)


class TestZetaStatistics:
    def test_smoke_simulation_replication(self):
        """One simulated replication: zetas finite with sane scale."""
        p, n = 50, 100
        Sigma = make_covariance(p, seed=7)
        L = np.linalg.cholesky(Sigma)
        beta_star = make_signal(p)
        rng = np.random.default_rng(42)
        X = rng.standard_normal((n, p)) @ L.T
        eps = rng.standard_normal(n) / np.sqrt(rng.chisquare(2, n) / 2)
        data = Dataset(X=X, y=X @ beta_star + eps)
        loss = HuberLoss(scale=1.0)
        penalty = ElasticNet(lam=0.05, tau=0.05)
        result = fit(data, loss, penalty)
        bundle = sensitivity_closed_form(data, loss, penalty, result)
        zetas, summary = zeta_statistics(result, bundle, X, Sigma, beta_star, eps, loss)
        assert zetas.shape == (n,)
        assert np.all(np.isfinite(zetas))
        # Loose sanity bands; the sharp distributional claims live in the
        # acceptance suite over hundreds of replications.
        assert abs(summary["mean"]) <= 0.35
        assert 0.5 <= summary["variance"] <= 1.6
        assert ks_normal(zetas) <= 0.2

    def test_denominator_is_the_sigma_norm(self):
        """zeta = (r + trace[Sigma A] psi(r) - eps) / sqrt(out_of_sample_error),
        bit for bit."""
        loss = HuberLoss(scale=0.8)
        data, result, bundle = _fit_bundle(6, loss, ElasticNet(lam=0.04, tau=0.06))
        Sigma = make_covariance(data.p, seed=3)
        beta_star = make_signal(data.p)
        eps = np.random.default_rng(6).standard_normal(data.n)
        zetas, _ = zeta_statistics(result, bundle, data.X, Sigma, beta_star, eps, loss)
        r = result.residuals
        denom = np.sqrt(out_of_sample_error(result.beta_hat, beta_star, Sigma))
        expected = (r + trace_sigma_A(bundle, data.X, Sigma) * loss.psi(r) - eps) / denom
        assert zetas.tobytes() == expected.tobytes()

    def test_exact_recovery_degenerate(self):
        data, result, bundle = _fit_bundle(8, make_loss("square"), ElasticNet(tau=0.2))
        with pytest.raises(DegenerateDenominator):
            zeta_statistics(
                result, bundle, data.X, np.eye(data.p), result.beta_hat,
                np.zeros(data.n), make_loss("square"),
            )


class TestSquareLossNormalityStat:
    def test_pooled_ks_across_replications(self):
        """200 replications at (400, 200), sigma = 1, ridge: the pooled
        standardized residuals are close to N(0,1) under both scalings, and
        the adaptive scaling agrees with the covariance-aware one."""
        n, p = 400, 200
        Sigma = make_covariance(p, seed=123)
        L = np.linalg.cholesky(Sigma)
        beta_star = make_signal(p)
        penalty = ElasticNet(tau=0.1)
        opts = FitOptions(kkt_tolerance=1e-8)
        pooled_oracle = []
        pooled_adaptive = []
        ratio_gaps = []
        for rep in range(200):
            rng = np.random.default_rng(9000 + rep)
            X = rng.standard_normal((n, p)) @ L.T
            eps = rng.standard_normal(n)
            data = Dataset(X=X, y=X @ beta_star + eps)
            result = fit(data, make_loss("square"), penalty, opts)
            bundle = sensitivity_closed_form(data, make_loss("square"), penalty, result)
            oracle, adaptive = square_loss_normality_stat(
                result, bundle, X, Sigma, beta_star, 1.0
            )
            pooled_oracle.append(oracle)
            pooled_adaptive.append(adaptive)
            tsa = trace_sigma_A(bundle, X, Sigma)
            ratio_gaps.append(abs((1.0 - bundle.df / n) * (1.0 + tsa) - 1.0))
        assert ks_normal(np.concatenate(pooled_oracle)) <= 0.05
        assert ks_normal(np.concatenate(pooled_adaptive)) <= 0.05
        # (1 - df/n)(1 + trace[Sigma A]) tracks 1: the two scalings match.
        assert np.median(ratio_gaps) <= 0.1

    def test_degenerate_raises(self):
        data, result, bundle = _fit_bundle(9, make_loss("square"), ElasticNet(tau=0.2))
        with pytest.raises(DegenerateDenominator):
            square_loss_normality_stat(
                result, bundle, data.X, np.eye(data.p), result.beta_hat, 0.0
            )

    @pytest.mark.parametrize("lam", [1e-3, 1e-4])
    def test_interpolating_fit_raises(self, lam):
        """An interpolating lasso (n = 10, p = 30, tau = 0) has df = rank = n,
        where the adaptive scale (1 - df/n)^{-1} is undefined."""
        data, result, bundle = _fit_bundle(
            0, make_loss("square"), ElasticNet(lam=lam, tau=0.0), n=10, p=30
        )
        assert bundle.df == bundle.rank == data.n
        with pytest.raises(DegenerateDenominator, match=r"df = 10\.0 reaches n = 10"):
            square_loss_normality_stat(
                result, bundle, data.X, np.eye(data.p), np.zeros(data.p), 1.0
            )


class TestTables:
    def test_qq_table_shape_and_order(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=101)
        table = qq_table(x)
        assert table.shape == (101, 2)
        assert np.all(np.diff(table[:, 0]) > 0)  # strictly increasing quantiles
        np.testing.assert_array_equal(table[:, 1], np.sort(x))
        # Median plotting position maps to the exact normal median.
        assert table[50, 0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 101, 5000])
    def test_qq_quantiles_match_ndtri(self, n):
        """The theoretical column against scipy's normal quantile function."""
        table = qq_table(np.zeros(n))
        expected = ndtri((np.arange(1, n + 1) - 0.5) / n)
        np.testing.assert_allclose(table[:, 0], expected, rtol=0, atol=1e-14)

    def test_histogram_table(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=500)
        table = histogram_table(x, bins=12)
        assert table.shape == (12, 3)
        assert float(table[:, 2].sum()) == 500.0
        np.testing.assert_allclose(table[1:, 0], table[:-1, 1], atol=0)

    def test_csv_writers(self, tmp_path):
        rng = np.random.default_rng(13)
        x = rng.normal(size=64)
        qq_path = tmp_path / "qq.csv"
        hist_path = tmp_path / "hist.csv"
        write_qq_csv(x, qq_path)
        write_histogram_csv(x, hist_path, bins=8)
        qq_lines = qq_path.read_text().strip().split("\n")
        assert qq_lines[0] == "theoretical,empirical"
        assert len(qq_lines) == 65
        hist_lines = hist_path.read_text().strip().split("\n")
        assert hist_lines[0] == "bin_left,bin_right,count"
        assert len(hist_lines) == 9
        # Counts serialize as integers, coordinates as floats.
        assert hist_lines[1].split(",")[2].isdigit()
