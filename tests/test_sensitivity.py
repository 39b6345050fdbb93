"""Sensitivity objects: exact tiny cases, FD oracles, algebraic identities."""

import numpy as np
import pytest

import hubertune.sensitivity
from hubertune import (
    Dataset,
    DegenerateFit,
    ElasticNet,
    FitOptions,
    FitResult,
    GridCell,
    HuberLoss,
    SingularSystem,
    a_hat,
    a_hat_full,
    apply_V,
    contraction_check,
    evaluate_grid,
    fit,
    jacobian_x_entry,
    jacobian_y,
    make_loss,
    run_derivative_checks,
    select,
    sensitivity_closed_form,
    trace_sigma_A,
)
from hubertune.sensitivity import _fd_safe_fixture, sensitivity_fd_oracle
from oracles import dense_df, dense_system, fit_with_intercept, intercept_psi_matrix

TIGHT = FitOptions(kkt_tolerance=1e-11)


def _fit_and_bundle(data, loss, penalty, options=TIGHT):
    result = fit(data, loss, penalty, options)
    return result, sensitivity_closed_form(data, loss, penalty, result)


class TestTinyExactCase:
    """n = 2, p = 1, X = (1,1)', square loss, ridge tau = 1, y = (1, 3).

    beta_hat = mean(y)/(1+tau) = 1; M = X'X + n*tau = 4; A = 1/4;
    df = 1 - n*tau*tr(A) = 1/2; trace_V = n - tr(A X'X) = 3/2.
    """

    def setup_method(self):
        self.data = Dataset(X=np.array([[1.0], [1.0]]), y=np.array([1.0, 3.0]))
        self.loss = make_loss("square")
        self.penalty = ElasticNet(tau=1.0)
        self.result, self.bundle = _fit_and_bundle(self.data, self.loss, self.penalty)

    def test_beta_hat(self):
        assert self.result.beta_hat[0] == pytest.approx(1.0, abs=1e-9)

    def test_a_hat(self):
        A = a_hat(self.bundle, self.data.X)
        assert A.shape == (1, 1)
        assert A[0, 0] == pytest.approx(0.25, abs=1e-10)

    def test_df(self):
        assert self.bundle.df == pytest.approx(0.5, abs=1e-9)

    def test_trace_v(self):
        assert self.bundle.trace_V == pytest.approx(1.5, abs=1e-9)

    def test_counts(self):
        assert self.bundle.n_hat == 2.0
        assert self.bundle.p_hat == 1
        assert self.bundle.tau_eff == 1.0

    def test_jacobian_y_columns(self):
        """d beta / d y_i = A x_i psi'(r_i) = 1/4 for both observations."""
        J = jacobian_y(self.bundle, self.data, a_hat(self.bundle, self.data.X))
        np.testing.assert_allclose(J, [[0.25, 0.25]], atol=1e-9)

    def test_trace_sigma_a(self):
        assert trace_sigma_A(
            self.bundle, self.data.X, np.array([[2.0]])
        ) == pytest.approx(0.5, abs=1e-10)

    def test_fd_oracle_df(self):
        _, df_fd, trace_V_fd = sensitivity_fd_oracle(
            self.data, self.loss, self.penalty, TIGHT, step=1e-5
        )
        assert df_fd == pytest.approx(0.5, abs=1e-5)
        assert trace_V_fd == pytest.approx(1.5, abs=1e-5)


class TestRidgeClosedForm:
    """With square loss and pure ridge, A = (X'X + n*tau*I)^{-1} exactly."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_direct_inverse(self, seed):
        rng = np.random.default_rng(seed)
        n, p = 30, 6
        X = rng.normal(size=(n, p))
        y = X @ rng.normal(size=p) + rng.normal(size=n)
        tau = 0.3
        result, bundle = _fit_and_bundle(Dataset(X=X, y=y), make_loss("square"), ElasticNet(tau=tau))
        assert bundle.p_hat == p
        direct = np.linalg.inv(X.T @ X + n * tau * np.eye(p))
        np.testing.assert_allclose(
            a_hat(bundle, X)[np.argsort(bundle.active_set)][:, np.argsort(bundle.active_set)],
            direct,
            rtol=1e-10,
        )
        # df and trace_V from the same direct inverse.
        J_direct = direct @ X.T
        assert bundle.df == pytest.approx(np.trace(X @ J_direct), rel=1e-10)
        assert bundle.trace_V == pytest.approx(
            n - np.trace(X @ J_direct), rel=1e-10
        )


class TestAlgebraicIdentities:
    def _random_case(self, seed, loss, penalty, n=30, p=8, intercept=False):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p))
        beta = np.zeros(p)
        beta[: p // 2] = rng.normal(size=p // 2)
        y = (0.5 if intercept else 0.0) + X @ beta + 0.5 * rng.standard_normal(n)
        data = Dataset(X=X, y=y)
        if intercept:
            result = fit_with_intercept(
                data, loss, penalty, FitOptions(kkt_tolerance=1e-11, intercept=True)
            )
        else:
            result = fit(data, loss, penalty, TIGHT)
        return data, result, sensitivity_closed_form(data, loss, penalty, result)

    @pytest.mark.parametrize("intercept", [False, True])
    @pytest.mark.parametrize(
        "loss", [make_loss("square"), HuberLoss(scale=1.0)], ids=["square", "huber"]
    )
    def test_trace_v_equals_nhat_minus_df(self, loss, intercept):
        """With psi' in {0,1}, D^2 = D forces trace_V = n_hat - df."""
        data, result, bundle = self._random_case(
            7, loss, ElasticNet(lam=0.05, tau=0.1), intercept=intercept
        )
        assert bundle.trace_V == pytest.approx(bundle.n_hat - bundle.df, abs=1e-10)

    def test_df_two_expressions_agree(self):
        """p_hat - n*tau*tr(A) equals the direct trace[X J] contraction."""
        data, result, bundle = self._random_case(
            11, HuberLoss(scale=1.0), ElasticNet(lam=0.05, tau=0.1)
        )
        J = jacobian_y(bundle, data, a_hat(bundle, data.X))
        assert bundle.df == pytest.approx(float(np.trace(data.X @ J)), abs=1e-10)

    def test_bounds(self):
        for seed in range(5):
            data, result, bundle = self._random_case(
                seed, HuberLoss(scale=0.9), ElasticNet(lam=0.08, tau=0.05)
            )
            assert 0.0 <= bundle.df <= bundle.p_hat + 1e-12
            assert bundle.df <= bundle.n_hat + 1e-12
            assert 0.0 <= bundle.trace_V <= bundle.n_hat + 1e-12
            assert bundle.n_hat <= data.n

    def test_spectral_bound(self):
        """lam_max(S^1/2 A S^1/2) <= lam_max(S)/(n*tau_eff) since A <= I/(n*tau)."""
        rng = np.random.default_rng(13)
        data, result, bundle = self._random_case(
            13, HuberLoss(scale=1.0), ElasticNet(lam=0.05, tau=0.2)
        )
        p = data.p
        W = rng.normal(size=(2 * p, p))
        Sigma = W.T @ W / (2 * p)
        root = np.linalg.cholesky(Sigma + 1e-12 * np.eye(p))
        A = a_hat_full(bundle, a_hat(bundle, data.X))
        M = root.T @ A @ root
        top = np.linalg.eigvalsh(0.5 * (M + M.T))[-1]
        bound = np.linalg.eigvalsh(Sigma)[-1] / (data.n * bundle.tau_eff)
        assert top <= bound * (1 + 1e-10)

    def test_a_hat_symmetric_psd(self):
        data, result, bundle = self._random_case(
            17, HuberLoss(scale=1.0), ElasticNet(lam=0.05, tau=0.1)
        )
        A = a_hat(bundle, data.X)
        np.testing.assert_array_equal(A, A.T)
        assert np.all(np.linalg.eigvalsh(A) > 0)

    def test_apply_v_matches_dense(self):
        data, result, bundle = self._random_case(
            19, HuberLoss(scale=1.0), ElasticNet(lam=0.05, tau=0.1)
        )
        d = bundle.psi_prime_diag
        A_hat = a_hat(bundle, data.X)
        A = a_hat_full(bundle, A_hat)
        V = np.diag(d) @ (np.eye(data.n) - data.X @ A @ data.X.T @ np.diag(d))
        rng = np.random.default_rng(0)
        for _ in range(3):
            v = rng.normal(size=data.n)
            np.testing.assert_allclose(apply_V(bundle, data, A_hat, v), V @ v, atol=1e-12)

    def test_trace_v_equals_dense_trace(self):
        data, result, bundle = self._random_case(
            23, HuberLoss(scale=1.0), ElasticNet(lam=0.05, tau=0.1)
        )
        d = bundle.psi_prime_diag
        A = a_hat_full(bundle, a_hat(bundle, data.X))
        V = np.diag(d) @ (np.eye(data.n) - data.X @ A @ data.X.T @ np.diag(d))
        assert bundle.trace_V == pytest.approx(float(np.trace(V)), abs=1e-10)


class TestEmptyActiveSet:
    def setup_method(self):
        rng = np.random.default_rng(29)
        X = rng.normal(size=(15, 4))
        y = 0.01 * rng.standard_normal(15)
        self.data = Dataset(X=X, y=y)
        self.loss = HuberLoss(scale=1.0)
        self.penalty = ElasticNet(lam=5.0)
        self.result, self.bundle = _fit_and_bundle(self.data, self.loss, self.penalty)
        self.A = a_hat(self.bundle, X)

    def test_fit_is_zero(self):
        np.testing.assert_array_equal(self.result.beta_hat, np.zeros(4))

    def test_bundle_shape_and_values(self):
        b = self.bundle
        assert b.p_hat == 0
        assert (b.system, b.system_size) == ("none", 0)
        assert self.A.shape == (0, 0)
        assert b.df == 0.0
        assert b.trace_V == b.n_hat == 15.0  # all residuals tiny: psi' = 1

    def test_jacobian_zero(self):
        J = jacobian_y(self.bundle, self.data, self.A)
        np.testing.assert_array_equal(J, np.zeros((4, 15)))

    def test_trace_sigma_a_zero(self):
        assert trace_sigma_A(self.bundle, self.data.X, np.eye(4)) == 0.0

    def test_a_hat_full_is_zero(self):
        np.testing.assert_array_equal(a_hat_full(self.bundle, self.A), np.zeros((4, 4)))

    def test_trace_sigma_a_rejects_a_covariance_of_the_wrong_shape(self):
        with pytest.raises(ValueError, match=r"covariance shape \(3, 3\)"):
            trace_sigma_A(self.bundle, self.data.X, np.eye(3))

    def test_apply_v_reduces_to_diagonal(self):
        v = np.arange(15.0)
        np.testing.assert_array_equal(
            apply_V(self.bundle, self.data, self.A, v), self.bundle.psi_prime_diag * v
        )


class TestJacobians:
    def test_huber_saturated_observation_gives_zero_column(self):
        """An observation in the linear regime (psi' = 0) cannot move beta."""
        rng = np.random.default_rng(37)
        X = rng.normal(size=(20, 4))
        y = X @ np.array([1.0, -0.5, 0.0, 0.0]) + 0.3 * rng.standard_normal(20)
        y[3] += 25.0  # gross outlier: residual far beyond the Huber scale
        data = Dataset(X=X, y=y)
        loss = HuberLoss(scale=1.0)
        result, bundle = _fit_and_bundle(data, loss, ElasticNet(lam=0.05, tau=0.1))
        assert abs(result.residuals[3]) > loss.scale
        J = jacobian_y(bundle, data, a_hat(bundle, X))
        np.testing.assert_array_equal(J[:, 3], np.zeros(4))

    def test_jacobian_y_matches_fd(self):
        """Closed form versus central differences at 1e-4 relative."""
        rng = np.random.default_rng(41)
        X = rng.normal(size=(25, 10))
        y = X[:, :4] @ np.array([1.2, -0.7, 0.5, 0.9]) + 0.4 * rng.standard_normal(25)
        data = Dataset(X=X, y=y)
        penalty = ElasticNet(lam=0.08, tau=0.05)
        opts = FitOptions(kkt_tolerance=1e-10)
        result = fit(data, make_loss("square"), penalty, opts)
        bundle = sensitivity_closed_form(data, make_loss("square"), penalty, result)
        J = jacobian_y(bundle, data, a_hat(bundle, X))
        J_fd, df_fd, trace_V_fd = sensitivity_fd_oracle(
            data, make_loss("square"), penalty, opts, step=1e-4
        )
        assert np.linalg.norm(J - J_fd) / np.linalg.norm(J) <= 1e-4
        assert abs(bundle.df - df_fd) <= 1e-4
        assert abs(bundle.trace_V - trace_V_fd) <= 1e-4

    def test_jacobian_y_matches_fd_huber_intercept(self):
        """Intercept variant (rank-one corrected) against the same oracle."""
        rng = np.random.default_rng(500)
        X = rng.normal(size=(30, 6))
        y = 0.7 + X[:, :2] @ np.array([1.1, -0.9]) + 0.5 * rng.standard_normal(30)
        data = Dataset(X=X, y=y)
        loss = HuberLoss(scale=1.0)
        penalty = ElasticNet(lam=0.04, tau=0.06)
        opts = FitOptions(kkt_tolerance=1e-10, intercept=True)
        result = fit_with_intercept(data, loss, penalty, opts)
        # The fixture keeps residuals clear of the kink so FD is smooth.
        assert np.min(np.abs(np.abs(result.residuals) - loss.scale)) > 1e-2
        bundle = sensitivity_closed_form(data, loss, penalty, result)
        J = jacobian_y(bundle, data, a_hat(bundle, X))
        J_fd, df_fd, trace_V_fd = sensitivity_fd_oracle(
            data, loss, penalty, opts, step=1e-4
        )
        assert np.linalg.norm(J - J_fd) / np.linalg.norm(J) <= 1e-4
        assert abs(bundle.df - df_fd) <= 1e-4
        assert abs(bundle.trace_V - trace_V_fd) <= 1e-4

    def test_jacobian_x_identity(self):
        """d beta/d x_ij + beta_j * d beta/d y_i = A e_j psi(r_i), exactly."""
        rng = np.random.default_rng(43)
        X = rng.normal(size=(20, 5))
        y = X @ np.array([1.0, -0.8, 0.5, 0.0, 0.0]) + 0.3 * rng.standard_normal(20)
        data = Dataset(X=X, y=y)
        loss = HuberLoss(scale=1.2)
        penalty = ElasticNet(lam=0.05, tau=0.1)
        result, bundle = _fit_and_bundle(data, loss, penalty)
        A_hat = a_hat(bundle, X)
        J_y = jacobian_y(bundle, data, A_hat)
        A = a_hat_full(bundle, A_hat)
        for i in (0, 7, 19):
            for j in range(5):
                lhs = (
                    jacobian_x_entry(bundle, data, result, A_hat, i, j)
                    + result.beta_hat[j] * J_y[:, i]
                )
                rhs = A[:, j] * bundle.psi_diag[i]
                np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_jacobian_x_matches_fd(self):
        """Design-entry derivative against central differences at fixed y."""
        rng = np.random.default_rng(47)
        X = rng.normal(size=(20, 5))
        y = X @ np.array([1.0, -0.8, 0.5, 0.0, 0.0]) + 0.3 * rng.standard_normal(20)
        data = Dataset(X=X, y=y)
        penalty = ElasticNet(lam=0.0, tau=0.3)
        opts = FitOptions(kkt_tolerance=1e-11)
        result = fit(data, make_loss("square"), penalty, opts)
        bundle = sensitivity_closed_form(data, make_loss("square"), penalty, result)
        A_hat, step = a_hat(bundle, X), 1e-5
        for i, j in [(0, 0), (5, 2), (12, 4)]:
            closed = jacobian_x_entry(bundle, data, result, A_hat, i, j)
            Xp = X.copy()
            Xp[i, j] += step
            Xm = X.copy()
            Xm[i, j] -= step
            bp = fit(Dataset(X=Xp, y=y), make_loss("square"), penalty, opts).beta_hat
            bm = fit(Dataset(X=Xm, y=y), make_loss("square"), penalty, opts).beta_hat
            fd = (bp - bm) / (2 * step)
            np.testing.assert_allclose(closed, fd, atol=1e-4)


class TestInterceptPsiMatrix:
    def test_square_loss_is_centering_matrix(self):
        rng = np.random.default_rng(53)
        X = rng.normal(size=(10, 2))
        y = rng.normal(size=10)
        result = fit_with_intercept(
            Dataset(X=X, y=y), make_loss("square"), ElasticNet(tau=0.5),
            FitOptions(kkt_tolerance=1e-10, intercept=True),
        )
        P = intercept_psi_matrix(result, make_loss("square"))
        np.testing.assert_allclose(P, np.eye(10) - np.ones((10, 10)) / 10, atol=1e-12)

    def test_single_quadratic_observation_gives_zero(self):
        """With exactly one psi' = 1 entry, D - dd'/s collapses to zero."""
        rng = np.random.default_rng(59)
        X = rng.normal(size=(5, 2))
        y = np.array([0.0, 30.0, -40.0, 50.0, -60.0])
        loss = HuberLoss(scale=1.0)
        result = fit_with_intercept(
            Dataset(X=X, y=y), loss, ElasticNet(lam=10.0, tau=10.0),
            FitOptions(kkt_tolerance=1e-8, intercept=True),
        )
        d = loss.psi_prime(result.residuals)
        if int(np.sum(d)) == 1:
            P = intercept_psi_matrix(result, loss)
            np.testing.assert_allclose(P, np.zeros((5, 5)), atol=1e-15)
        else:  # pragma: no cover - fixture guard
            pytest.skip("fixture left more than one quadratic-regime residual")

    def test_row_sums_zero_and_psd(self):
        rng = np.random.default_rng(61)
        X = rng.normal(size=(15, 3))
        y = X @ np.array([1.0, 0.0, -1.0]) + rng.standard_t(df=2, size=15)
        loss = HuberLoss(scale=0.8)
        result = fit_with_intercept(
            Dataset(X=X, y=y), loss, ElasticNet(lam=0.05, tau=0.1),
            FitOptions(kkt_tolerance=1e-9, intercept=True),
        )
        P = intercept_psi_matrix(result, loss)
        np.testing.assert_allclose(P.sum(axis=1), np.zeros(15), atol=1e-12)
        assert np.min(np.linalg.eigvalsh(0.5 * (P + P.T))) >= -1e-12

    def test_all_saturated_raises(self):
        rng = np.random.default_rng(67)
        X = rng.normal(size=(4, 2))
        result = fit(
            Dataset(X=X, y=np.array([100.0, -200.0, 300.0, -400.0])),
            HuberLoss(scale=1.0),
            ElasticNet(lam=50.0, tau=50.0),
        )
        assert np.all(np.abs(result.residuals) > 1.0)
        with pytest.raises(DegenerateFit):
            intercept_psi_matrix(result, HuberLoss(scale=1.0))


class TestContraction:
    def test_huber_elastic_net_identities(self):
        """Five summed-derivative identities hold to 1e-3 at step 1e-3."""
        rng = np.random.default_rng(100)
        n, p = 20, 8
        X = rng.normal(size=(n, p))
        beta_star = np.zeros(p)
        beta_star[:3] = [1.0, -0.8, 0.6]
        y = X @ beta_star + 0.5 * rng.standard_normal(n)
        data = Dataset(X=X, y=y)
        loss = HuberLoss(scale=1.0)
        penalty = ElasticNet(lam=0.05, tau=0.1)
        result, bundle = _fit_and_bundle(data, loss, penalty)
        # Residuals clear the kink by more than the FD step.
        assert np.min(np.abs(np.abs(result.residuals) - loss.scale)) > 1e-2
        report = contraction_check(
            data, loss, penalty, result, bundle, a_hat(bundle, X), beta_star,
            step=1e-3, options=TIGHT,
        )
        assert report.residuals.shape == (5,)
        assert np.all(report.residuals <= 1e-3)

    def test_square_ridge_identities_tight(self):
        """Kink-free case: all five residuals sit near the solver floor."""
        rng = np.random.default_rng(200)
        X = rng.normal(size=(20, 8))
        beta_star = rng.normal(size=8) / np.sqrt(8)
        y = X @ beta_star + 0.3 * rng.standard_normal(20)
        data = Dataset(X=X, y=y)
        result, bundle = _fit_and_bundle(data, make_loss("square"), ElasticNet(tau=0.2))
        report = contraction_check(
            data, make_loss("square"), ElasticNet(tau=0.2), result, bundle, a_hat(bundle, X),
            beta_star, step=1e-4, options=TIGHT,
        )
        assert np.all(report.residuals <= 1e-5)


class TestRunDerivativeChecks:
    def test_passes_on_clean_fixture(self):
        report = run_derivative_checks(
            n=20, p=6, loss=HuberLoss(scale=1.0),
            penalty=ElasticNet(lam=0.1, tau=0.1), seed=3,
        )
        assert report.passed
        assert not report.failures
        assert report.jacobian_rel_error <= 1e-3
        assert report.df_abs_error <= 1e-3
        assert report.trace_v_abs_error <= 1e-3
        assert len(report.contraction_reports) == 2
        for rep in report.contraction_reports:
            assert np.all(rep.residuals <= 1e-3)

    def test_fault_injection_fails_and_names_jacobian(self):
        report = run_derivative_checks(
            n=20, p=6, loss=HuberLoss(scale=1.0),
            penalty=ElasticNet(lam=0.1, tau=0.1), seed=3, fault="corrupt-a-hat",
        )
        assert not report.passed
        assert "jacobian_y" in report.failures

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError):
            run_derivative_checks(
                n=10, p=4, loss=make_loss("square"),
                penalty=ElasticNet(tau=0.1), seed=0, fault="no-such-fault",
            )


def _side_case(wide, intercept, loss_name):
    """A fit whose active set outnumbers its inliers (wide) or not.

    Seed 5 gives p_hat/n_hat = 43/30 (square) and 32/23 (Huber) on the
    30 x 60 design, 38/30 and 29/22 with an intercept, and between 14/43
    and 18/60 on the 60 x 20 one.
    """
    n, p = (30, 60) if wide else (60, 20)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((n, p))
    y = X[:, :5] @ np.ones(5) + rng.standard_t(3, n) + (0.5 if intercept else 0.0)
    data = Dataset(X=X, y=y)
    if loss_name == "square":
        loss = make_loss("square")
    else:
        loss = HuberLoss(scale=0.2 if wide else 0.8)
    penalty = ElasticNet(lam=0.02, tau=0.05)
    opts = FitOptions(kkt_tolerance=1e-11, intercept=intercept)
    result = fit(data, loss, penalty, opts)
    return data, loss, result, sensitivity_closed_form(data, loss, penalty, result)


def _dense_inverse(data, loss, result, bundle):
    """(M^{-1}, X_S' Psi') from the full-n system, M fully inverted."""
    M, XS, psi = dense_system(data, result, loss, bundle.tau_eff)
    return np.linalg.inv(M), XS.T @ psi


@pytest.fixture
def factor_shapes(monkeypatch):
    """Record the shape of every matrix sensitivity factors: the Gram
    whose eigenvalues give df, and the primal system A_hat inverts."""
    shapes = []

    def record(name):
        original = getattr(hubertune.sensitivity, name)

        def recording(G):
            shapes.append(G.shape)
            return original(G)

        monkeypatch.setattr(hubertune.sensitivity, name, recording)

    record("eigvalsh")
    record("inv")
    return shapes


@pytest.mark.parametrize("loss_name", ["square", "huber"])
@pytest.mark.parametrize("intercept", [False, True], ids=["plain", "intercept"])
@pytest.mark.parametrize("wide", [True, False], ids=["dual", "primal"])
class TestSmallerSide:
    """df from the smaller system; A_hat formed only when read."""

    def test_df_matches_dense_oracle(self, wide, intercept, loss_name):
        data, loss, result, bundle = _side_case(wide, intercept, loss_name)
        assert (bundle.p_hat > bundle.n_hat) == wide
        assert bundle.system == ("dual" if wide else "primal")
        assert bundle.system_size == min(bundle.p_hat, bundle.n_hat)
        ref = dense_df(data, result, loss, bundle.tau_eff)
        assert bundle.df == pytest.approx(ref, rel=1e-10)
        assert bundle.trace_V == pytest.approx(bundle.n_hat - ref, rel=1e-10)

    def test_factors_one_matrix_of_the_smaller_order(
        self, wide, intercept, loss_name, factor_shapes
    ):
        data, loss, result, bundle = _side_case(wide, intercept, loss_name)
        m = int(min(bundle.p_hat, bundle.n_hat))
        assert factor_shapes == [(m, m)]  # A_hat not formed
        a_hat(bundle, data.X)
        assert factor_shapes == [(m, m), (bundle.p_hat, bundle.p_hat)]

    def test_lazy_a_hat_matches_full_inverse(self, wide, intercept, loss_name):
        data, loss, result, bundle = _side_case(wide, intercept, loss_name)
        inv, inner = _dense_inverse(data, loss, result, bundle)
        Sigma = np.cov(np.random.default_rng(1).standard_normal((3 * data.p, data.p)).T)
        S = bundle.active_set
        assert trace_sigma_A(bundle, data.X, Sigma) == pytest.approx(
            float(np.sum(Sigma[np.ix_(S, S)] * inv)), rel=1e-12
        )
        J = jacobian_y(bundle, data, a_hat(bundle, data.X))
        J_dense = inv @ inner
        assert np.linalg.norm(J[S] - J_dense) <= 1e-12 * np.linalg.norm(J_dense)
        assert not np.any(np.delete(J, S, axis=0))

    def test_apply_v_matches_dense_v(self, wide, intercept, loss_name):
        """V = D(I - X dbeta/dy), whose trace is trace_V, intercept or not."""
        data, loss, result, bundle = _side_case(wide, intercept, loss_name)
        inv, inner = _dense_inverse(data, loss, result, bundle)
        XS = data.X[:, bundle.active_set]
        V = np.diag(bundle.psi_prime_diag) @ (np.eye(data.n) - XS @ inv @ inner)
        assert bundle.trace_V == pytest.approx(float(np.trace(V)), rel=1e-10)
        v = np.random.default_rng(2).normal(size=data.n)
        A_hat = a_hat(bundle, data.X)
        np.testing.assert_allclose(apply_V(bundle, data, A_hat, v), V @ v, atol=1e-12)


class TestWorkGates:
    def test_grid_selection_never_forms_a_hat(self, factor_shapes, monkeypatch):
        data, *_ = _side_case(True, False, "huber")
        factor_shapes.clear()
        original, calls = hubertune.sensitivity.a_hat, []

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(hubertune.sensitivity, "a_hat", counting)
        cells = [GridCell(huber_scale=0.2, lam=lam, tau=0.05) for lam in (0.02, 0.05)]
        candidates = evaluate_grid(data, cells, FitOptions(kkt_tolerance=1e-11))
        select(candidates)
        bundles = [cand.bundle for cand in candidates]
        assert [b.system for b in bundles] == ["dual", "dual"]
        assert factor_shapes == [(b.n_hat, b.n_hat) for b in bundles]
        assert calls == []

    def test_all_outliers_with_intercept_is_degenerate(self):
        """n_hat = 0 leaves the intercept's centring undefined."""
        X = np.random.default_rng(71).normal(size=(4, 2))
        result = FitResult(
            beta_hat=np.array([0.5, 0.0]),
            intercept_hat=0.0,
            residuals=np.array([5.0, -5.0, 6.0, -6.0]),
            active_set=np.array([0]),
            iterations=1,
            kkt_residual=0.0,
            converged=True,
            with_intercept=True,
            objective=0.0,
        )
        with pytest.raises(DegenerateFit):
            sensitivity_closed_form(
                Dataset(X=X, y=np.zeros(4)), HuberLoss(scale=1.0), ElasticNet(tau=0.1), result
            )


def _constructed_fit(X, inliers, active, intercept):
    """A FitResult for HuberLoss(scale=1.0) on X: the first `inliers`
    residuals are 0 (psi' = 1), the others 5 (psi' = 0)."""
    beta = np.zeros(X.shape[1])
    beta[active] = 0.5
    return FitResult(
        beta_hat=beta,
        intercept_hat=0.0,
        residuals=np.r_[np.zeros(inliers), np.full(X.shape[0] - inliers, 5.0)],
        active_set=np.asarray(active),
        iterations=1,
        kkt_residual=0.0,
        converged=True,
        with_intercept=intercept,
        objective=0.0,
    )


def _rank_case(name):
    """(X, y, loss, fit result at tau = 0, the rank of its inlier block).

    The three fitted cases are unique lasso fits, whose inlier block has
    full column rank p_hat: 16 of 60 rows (square), 14 of 41 (Huber) and,
    with an intercept, 22 of 27 on the 30 x 60 design.
    """
    fitted = {
        "lasso-primal": ((60, 20), make_loss("square"), False),
        "huber-primal": ((60, 20), HuberLoss(scale=0.8), False),
        "intercept-primal": ((30, 60), HuberLoss(scale=0.2), True),
    }
    if name in fitted:
        (n, p), loss, intercept = fitted[name]
        rng = np.random.default_rng(5)
        X = rng.standard_normal((n, p))
        y = X[:, :5] @ np.ones(5) + rng.standard_t(3, n) + (0.5 if intercept else 0.0)
        options = FitOptions(kkt_tolerance=1e-11, intercept=intercept)
        result = fit(Dataset(X=X, y=y), loss, ElasticNet(lam=0.02), options)
        return X, y, loss, result, result.active_set.size
    if name == "intercept-dual":
        # 5 centred inlier rows: rank 4 < n_hat = 5 < p_hat = 8.
        X = np.random.default_rng(41).normal(size=(12, 8))
        result, rank = _constructed_fit(X, 5, np.arange(8), True), 4
    else:
        # Every residual outside the Huber scale: an empty inlier block.
        X = np.random.default_rng(71).normal(size=(4, 2))
        result, rank = _constructed_fit(X, 0, [0], False), 0
    return X, np.zeros(X.shape[0]), HuberLoss(scale=1.0), result, rank


RANK_CASES = [
    "lasso-primal", "huber-primal", "intercept-primal", "intercept-dual", "all-outliers"
]


@pytest.mark.parametrize("name", RANK_CASES)
class TestRankAtTauZero:
    """At tau = 0, df is the rank of the inlier block, the lasso's df."""

    def test_df_is_the_integer_rank(self, name):
        X, y, loss, result, rank = _rank_case(name)
        bundle = sensitivity_closed_form(Dataset(X=X, y=y), loss, ElasticNet(lam=0.02), result)
        primal = name.endswith("primal")
        assert bundle.system == ("primal" if primal else "dual")
        assert bundle.rank == rank
        assert bundle.df == float(rank)  # bit for bit
        assert bundle.trace_V == bundle.n_hat - rank
        if primal:
            assert rank == bundle.p_hat > 0

    @pytest.mark.parametrize("tau", [0.0, 0.05])
    @pytest.mark.parametrize("k", [10, -10])
    def test_design_scaling_leaves_df_bit_identical(self, name, tau, k):
        """X -> 2^k X with tau -> 4^k tau leaves the same fit's df, rank and
        trace_V unchanged, bit for bit."""
        X, y, loss, result, _ = _rank_case(name)
        base = sensitivity_closed_form(Dataset(X=X, y=y), loss, ElasticNet(tau=tau), result)
        scaled = sensitivity_closed_form(
            Dataset(X=X * 2.0**k, y=y), loss, ElasticNet(tau=tau * 4.0**k), result
        )
        assert scaled.df == base.df and scaled.trace_V == base.trace_V
        assert scaled.rank == base.rank


@pytest.mark.parametrize("tau", [0.0, 0.05])
@pytest.mark.parametrize("name", RANK_CASES)
class TestAHatRule:
    def test_singular_exactly_at_tau_zero_below_full_rank(self, name, tau):
        """a_hat raises SingularSystem when tau = 0 and rank <
        p_hat; otherwise it is the dense inverse of the primal system."""
        X, y, loss, result, _ = _rank_case(name)
        data = Dataset(X=X, y=y)
        bundle = sensitivity_closed_form(data, loss, ElasticNet(tau=tau), result)
        if tau == 0 and bundle.rank < bundle.p_hat:
            assert not name.endswith("primal")
            with pytest.raises(SingularSystem, match="rank"):
                a_hat(bundle, X)
            return
        expected, _ = _dense_inverse(data, loss, result, bundle)
        A = a_hat(bundle, X)
        assert np.abs(A - expected).max() <= 1e-12 * np.abs(expected).max()
        np.testing.assert_array_equal(A, A.T)

    @pytest.mark.parametrize("k", [10, -10])
    def test_design_scaling_scales_a_hat_exactly(self, name, tau, k):
        """X -> 2^k X with tau -> 4^k tau scales A_hat by 4^-k, bit for bit,
        and leaves a singular system singular."""
        X, y, loss, result, _ = _rank_case(name)
        base = sensitivity_closed_form(Dataset(X=X, y=y), loss, ElasticNet(tau=tau), result)
        scaled = sensitivity_closed_form(
            Dataset(X=X * 2.0**k, y=y), loss, ElasticNet(tau=tau * 4.0**k), result
        )
        if tau == 0 and base.rank < base.p_hat:
            with pytest.raises(SingularSystem):
                a_hat(scaled, X * 2.0**k)
            return
        np.testing.assert_array_equal(a_hat(scaled, X * 2.0**k) * 4.0**k, a_hat(base, X))


class TestFdOracleWork:
    def test_each_refit_computes_its_own_step_bound(self, step_bounds):
        """The base fit and each of the 2n response refits fit a Dataset of
        their own, each computing one step bound."""
        rng = np.random.default_rng(8)
        data = Dataset(rng.normal(size=(12, 4)), rng.normal(size=12))
        J, _, _ = sensitivity_fd_oracle(
            data, HuberLoss(scale=1.0), ElasticNet(lam=0.02, tau=0.05), TIGHT, 1e-6
        )
        assert step_bounds == [(12, 4)] * (1 + 2 * 12)
        assert np.all(np.isfinite(J))


class TestDualSideDerivativeChecks:
    """The finite-difference oracles on p > n fixtures (n = 8, p = 12)."""

    @pytest.mark.parametrize(
        "loss", [make_loss("square"), HuberLoss(scale=1.0)], ids=["square", "huber"]
    )
    def test_fixture_takes_the_dual_side_and_passes(self, loss):
        penalty = ElasticNet(lam=0.02, tau=0.05)
        data, _, result = _fd_safe_fixture(8, 12, loss, penalty, 0, TIGHT)
        bundle = sensitivity_closed_form(data, loss, penalty, result)
        assert bundle.system == "dual" and bundle.p_hat > bundle.n_hat
        report = run_derivative_checks(8, 12, loss, penalty, seed=0)
        assert report.passed, report.failures

    def test_fault_injection_fails_on_the_dual_side(self):
        report = run_derivative_checks(
            8, 12, HuberLoss(scale=1.0), ElasticNet(lam=0.02, tau=0.05),
            seed=0, fault="corrupt-a-hat",
        )
        assert "jacobian_y" in report.failures
        assert any(name.startswith("contraction") for name in report.failures)
