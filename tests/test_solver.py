"""Solver: closed-form optima, independent search oracles, KKT invariants."""

import numpy as np
import pytest

from hubertune import (
    Dataset,
    ElasticNet,
    FitOptions,
    FitResult,
    HuberLoss,
    IllPosed,
    NonConvergence,
    SingularSystem,
    a_hat,
    fit,
    largest_singular_value,
    make_loss,
    sensitivity_closed_form,
)
from hubertune.solver import KKT_CHECK_EVERY, _kkt_score_gap

from oracles import fit_with_intercept, huber_value, kkt_residual, objective


def golden_section(f, lo, hi, tol=1e-10):
    """Minimize a unimodal scalar function; independent of the solver."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


class TestClosedFormOptima:
    def test_scalar_ridge(self):
        """1x1 design, square loss, ridge tau=1: minimizer is exactly 1/2."""
        data = Dataset(X=np.array([[1.0]]), y=np.array([1.0]))
        result = fit(data, make_loss("square"), ElasticNet(tau=1.0))
        assert result.converged
        assert result.beta_hat[0] == pytest.approx(0.5, abs=1e-8)
        assert result.intercept_hat == 0.0
        assert not result.with_intercept

    def test_identity_design_lasso_soft_threshold(self):
        """X = I2, y = (3, 0.5), lam = 0.5: coordinates decouple.

        Stationarity gives b1 = 3 - n*lam = 2 and b2 = 0 because the score
        |y2|/n = 0.25 is below lam.
        """
        data = Dataset(X=np.eye(2), y=np.array([3.0, 0.5]))
        result = fit(data, make_loss("square"), ElasticNet(lam=0.5), FitOptions(kkt_tolerance=1e-12))
        np.testing.assert_allclose(result.beta_hat, [2.0, 0.0], atol=1e-9)
        # The zero is exact, giving the active set without thresholding.
        assert result.beta_hat[1] == 0.0
        np.testing.assert_array_equal(result.active_set, [0])

    def test_huber_location_golden_section_oracle(self):
        """Huber location with one outlier versus golden-section search."""
        data = Dataset(X=np.ones((3, 1)), y=np.array([0.0, 0.0, 10.0]))
        loss = HuberLoss(scale=1.0)
        penalty = ElasticNet(tau=0.01)

        def scalar_objective(b):
            return objective(data, loss, penalty, np.array([b]))

        oracle = golden_section(scalar_objective, -2.0, 8.0)
        result = fit(data, loss, penalty, FitOptions(kkt_tolerance=1e-12))
        assert result.beta_hat[0] == pytest.approx(oracle, abs=1e-6)

    def test_intercept_two_dim_grid_oracle(self):
        """Huber + elastic net with intercept versus a refined 2-D grid."""
        rng = np.random.default_rng(5)
        X = rng.normal(size=(6, 1))
        y = 1.5 + 0.8 * X[:, 0] + rng.normal(scale=0.3, size=6)
        data = Dataset(X=X, y=y)
        loss = HuberLoss(scale=0.8)
        penalty = ElasticNet(lam=0.05, tau=0.05)

        lo0, hi0, lo1, hi1 = -3.0, 3.0, -3.0, 3.0
        for _ in range(3):
            b0 = np.linspace(lo0, hi0, 401)
            b1 = np.linspace(lo1, hi1, 401)
            B0, B1 = np.meshgrid(b0, b1, indexing="ij")
            R = y[None, None, :] - B0[..., None] - B1[..., None] * X[:, 0]
            obj = huber_value(R, loss.scale).mean(axis=-1) + penalty.lam * np.abs(B1) + 0.5 * penalty.tau * B1**2
            i, j = np.unravel_index(int(np.argmin(obj)), obj.shape)
            w0, w1 = (hi0 - lo0) / 400, (hi1 - lo1) / 400
            lo0, hi0 = b0[i] - 2 * w0, b0[i] + 2 * w0
            lo1, hi1 = b1[j] - 2 * w1, b1[j] + 2 * w1
        oracle0, oracle1 = b0[i], b1[j]

        result = fit_with_intercept(data, loss, penalty, FitOptions(kkt_tolerance=1e-12, intercept=True))
        assert result.with_intercept
        assert result.intercept_hat == pytest.approx(oracle0, abs=1e-5)
        assert result.beta_hat[0] == pytest.approx(oracle1, abs=1e-5)

    def test_zero_design_without_intercept(self):
        """All-zero design short-circuits: b = 0 is optimal at iteration 0."""
        data = Dataset(X=np.zeros((5, 2)), y=np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        result = fit(data, make_loss("square"), ElasticNet(lam=0.1, tau=0.1))
        assert result.converged
        assert result.iterations == 0
        np.testing.assert_array_equal(result.beta_hat, np.zeros(2))
        np.testing.assert_array_equal(result.residuals, data.y)

    def test_zero_design_ignores_the_initial_point(self):
        """On X = 0 the loss is constant in b, so b = 0 is the minimizer
        wherever the fit starts: at b = 1 the objective is 3.45, not 3."""
        data = Dataset(X=np.zeros((5, 3)), y=np.arange(5.0))
        loss, penalty = make_loss("square"), ElasticNet(lam=0.1, tau=0.1)
        result = fit(data, loss, penalty, FitOptions(initial_point=np.ones(3)))
        assert result.converged
        np.testing.assert_array_equal(result.beta_hat, np.zeros(3))
        assert kkt_residual(data, loss, penalty, result.beta_hat) <= 1e-8
        assert result.objective == objective(data, loss, penalty, np.zeros(3))
        assert result.objective == 3.0

    def test_zero_design_intercept_is_mean(self):
        """Zero design with intercept: square-loss location is the mean."""
        y = np.array([1.0, 2.0, 6.0])
        data = Dataset(X=np.zeros((3, 2)), y=y)
        result = fit_with_intercept(data, make_loss("square"), ElasticNet(lam=0.1, tau=0.1))
        assert result.intercept_hat == pytest.approx(y.mean(), abs=1e-8)
        np.testing.assert_array_equal(result.beta_hat, np.zeros(2))


class TestIntercept:
    def test_shift_equivariance(self):
        """Adding c to y moves the intercept by c and leaves beta alone."""
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 4))
        y = X @ np.array([1.0, -0.5, 0.0, 0.25]) + rng.normal(scale=0.5, size=30)
        loss = HuberLoss(scale=1.2)
        penalty = ElasticNet(lam=0.05, tau=0.1)
        opts = FitOptions(kkt_tolerance=1e-11, intercept=True)
        base = fit_with_intercept(Dataset(X=X, y=y), loss, penalty, opts)
        c = 7.3
        shifted = fit_with_intercept(Dataset(X=X, y=y + c), loss, penalty, opts)
        np.testing.assert_allclose(shifted.beta_hat, base.beta_hat, atol=1e-7)
        assert shifted.intercept_hat - base.intercept_hat == pytest.approx(c, abs=1e-7)

    def test_intercept_stationarity(self):
        """At the optimum the score residuals sum to zero (1'psi(r) = 0)."""
        rng = np.random.default_rng(9)
        X = rng.normal(size=(25, 3))
        y = 2.0 + X @ np.array([0.5, 0.0, -1.0]) + rng.normal(scale=0.4, size=25)
        loss = HuberLoss(scale=1.0)
        result = fit_with_intercept(
            Dataset(X=X, y=y), loss, ElasticNet(lam=0.02, tau=0.05),
            FitOptions(kkt_tolerance=1e-11, intercept=True),
        )
        assert abs(float(np.sum(loss.psi(result.residuals)))) / 25 <= 1e-10


class TestInvariants:
    def _random_instance(self, seed, n=30, p=8):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p))
        beta = rng.normal(size=p) * (rng.random(p) < 0.5)
        y = X @ beta + rng.standard_t(df=3, size=n)
        return Dataset(X=X, y=y)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize(
        "loss,penalty",
        [
            (make_loss("square"), ElasticNet(lam=0.1, tau=0.05)),
            (HuberLoss(scale=1.0), ElasticNet(lam=0.1, tau=0.05)),
            (HuberLoss(scale=0.5), ElasticNet(lam=0.2)),
            (make_loss("square"), ElasticNet(tau=0.3)),
        ],
    )
    def test_kkt_and_result_consistency(self, seed, loss, penalty):
        data = self._random_instance(seed)
        tol = 1e-9
        result = fit(data, loss, penalty, FitOptions(kkt_tolerance=tol))
        assert result.converged
        assert result.kkt_residual <= tol
        # The reported residual matches an independent recomputation.
        recomputed = kkt_residual(data, loss, penalty, result.beta_hat)
        assert recomputed == pytest.approx(result.kkt_residual, rel=1e-12, abs=1e-15)
        np.testing.assert_array_equal(
            result.active_set, np.flatnonzero(result.beta_hat != 0.0)
        )
        np.testing.assert_allclose(
            result.residuals, data.y - data.X @ result.beta_hat, atol=1e-12
        )
        assert result.objective == pytest.approx(
            objective(data, loss, penalty, result.beta_hat), rel=1e-12
        )

    def test_objective_not_worse_than_candidates(self):
        """F(beta_hat) <= F(0) and F at 20 random points."""
        data = self._random_instance(17)
        loss = HuberLoss(scale=1.0)
        penalty = ElasticNet(lam=0.1, tau=0.05)
        result = fit(data, loss, penalty, FitOptions(kkt_tolerance=1e-10))
        f_hat = result.objective
        assert f_hat <= objective(data, loss, penalty, np.zeros(data.p)) + 1e-12
        rng = np.random.default_rng(99)
        for _ in range(20):
            other = rng.normal(size=data.p)
            assert f_hat <= objective(data, loss, penalty, other) + 1e-12

    def test_inactive_score_bound(self):
        """Inactive coordinates satisfy |(1/n) x_j' psi(r)| <= lam."""
        data = self._random_instance(23, n=40, p=12)
        loss = HuberLoss(scale=1.0)
        penalty = ElasticNet(lam=0.3, tau=0.01)
        result = fit(data, loss, penalty, FitOptions(kkt_tolerance=1e-10))
        inactive = np.setdiff1d(np.arange(data.p), result.active_set)
        assert inactive.size > 0
        scores = data.X[:, inactive].T @ loss.psi(result.residuals) / data.n
        assert np.all(np.abs(scores) <= penalty.lam + 1e-10)

    def test_row_permutation_invariance(self):
        """Permuting observations leaves the minimizer unchanged."""
        data = self._random_instance(31)
        loss = HuberLoss(scale=0.9)
        penalty = ElasticNet(lam=0.08, tau=0.04)
        opts = FitOptions(kkt_tolerance=1e-11)
        base = fit(data, loss, penalty, opts)
        perm = np.random.default_rng(0).permutation(data.n)
        shuffled = Dataset(X=data.X[perm], y=data.y[perm])
        other = fit(shuffled, loss, penalty, opts)
        np.testing.assert_allclose(other.beta_hat, base.beta_hat, atol=1e-8)

    def test_warm_start_at_optimum_exits_immediately(self):
        data = self._random_instance(41)
        loss = make_loss("square")
        penalty = ElasticNet(lam=0.1, tau=0.1)
        first = fit(data, loss, penalty, FitOptions(kkt_tolerance=1e-10))
        again = fit(
            data, loss, penalty,
            FitOptions(kkt_tolerance=1e-8, initial_point=first.beta_hat),
        )
        assert again.iterations == 0
        np.testing.assert_array_equal(again.beta_hat, first.beta_hat)

    def test_fits_on_one_dataset_share_one_power_iteration(self, step_bounds, monkeypatch):
        """Each intercept flag computes one step bound per Dataset, and the
        cached value gives fits bit-identical to those on a fresh Dataset.
        The design [1 X] is stacked once per Dataset, read-only, and its
        step bound and both intercept fits read that one array."""
        stacks = []
        original_hstack = np.hstack

        def counting(arrays):
            stacks.append(len(arrays))
            return original_hstack(arrays)

        monkeypatch.setattr(np, "hstack", counting)
        data = self._random_instance(43)
        cases = [
            (loss, penalty, intercept)
            for loss, penalty in [
                (HuberLoss(scale=1.1), ElasticNet(lam=0.05, tau=0.02)),
                (make_loss("square"), ElasticNet(lam=0.1)),
            ]
            for intercept in (False, True)
        ]
        shared = [
            fit(data, loss, penalty, FitOptions(intercept=intercept))
            for loss, penalty, intercept in cases
        ]
        assert step_bounds == [(data.n, data.p), (data.n, data.p + 1)]
        assert stacks == [2]
        Xa = data.X_with_intercept
        assert not Xa.flags.writeable
        np.testing.assert_array_equal(Xa, np.column_stack([np.ones(data.n), data.X]))
        for (loss, penalty, intercept), got in zip(cases, shared):
            fresh = Dataset(data.X, data.y)
            alone = fit(fresh, loss, penalty, FitOptions(intercept=intercept))
            assert got.iterations == alone.iterations
            np.testing.assert_array_equal(got.beta_hat, alone.beta_hat)
            assert got.intercept_hat == alone.intercept_hat

    def test_largest_singular_value_matches_svd(self):
        """The top value from the smaller Gram matrix matches the SVD's to
        rounding, on both sides of n = p, and on rows that sum to zero."""
        rng = np.random.default_rng(50)
        k = np.arange(1.0, 5.0)
        designs = [rng.normal(size=shape) for shape in [(10, 4), (4, 10), (30, 30)]]
        designs += [np.column_stack([k, -k]), np.column_stack([k, -k]).T]
        for X in designs:
            s_top = np.linalg.svd(X, compute_uv=False)[0]
            assert largest_singular_value(X) == pytest.approx(s_top, rel=1e-13)

    def test_largest_singular_value_exact_where_power_steps_stall(self):
        """A Gaussian design whose two top singular values nearly tie: 200
        power steps from the uniform vector still miss by more than 1e-4."""
        X = np.random.default_rng(115).normal(size=(40, 20))
        s_top = np.linalg.svd(X, compute_uv=False)[0]
        v = np.full(20, 1.0 / np.sqrt(20))
        for _ in range(200):
            w = X.T @ (X @ v)
            v = w / np.linalg.norm(w)
        assert np.linalg.norm(X @ v) < s_top * (1 - 1e-4)
        assert largest_singular_value(X) == pytest.approx(s_top, rel=1e-13)


def heavy_tail_lasso_data(n, p):
    """The hard pure-lasso fixture: y = x_1 + x_2 + x_3 + t(2) noise."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((n, p))
    y = X[:, :3].sum(1) + rng.standard_t(2, n)
    return Dataset(X=X, y=y)


class TestNewtonPolish:
    def test_h1_reaches_machine_precision_quickly(self):
        """Near-interpolating lasso that took FISTA alone 88,822 iterations."""
        data = heavy_tail_lasso_data(50, 100)
        result = fit(data, HuberLoss(scale=0.3), ElasticNet(lam=0.005), FitOptions(kkt_tolerance=1e-12))
        assert result.converged
        assert result.kkt_residual <= 1e-12
        assert result.iterations < 5_000
        assert result.newton_attempts >= 1

    def test_h2_converges(self):
        """Certified well inside the cap; the flop budget bounds the attempts."""
        data = heavy_tail_lasso_data(100, 300)
        loss, penalty, cap = HuberLoss(scale=0.5), ElasticNet(lam=0.002), 20_000
        result = fit(data, loss, penalty, FitOptions(max_iterations=cap))
        assert result.converged
        assert result.kkt_residual <= 1e-8
        assert kkt_residual(data, loss, penalty, result.beta_hat) == pytest.approx(
            result.kkt_residual, rel=1e-12
        )
        assert result.iterations <= 5_000
        assert result.newton_attempts <= 2 + np.log2(cap)
        assert result.active_set.size <= data.n

    @pytest.mark.parametrize("intercept", [False, True])
    @pytest.mark.parametrize("loss", [make_loss("square"), HuberLoss(scale=1.0)], ids=["square", "huber"])
    @pytest.mark.parametrize(
        "n,p,penalty",
        [(40, 20, ElasticNet(lam=0.05, tau=0.01)), (30, 60, ElasticNet(lam=0.05))],
        ids=["ridge-n>p", "lasso-p>n"],
    )
    def test_polished_fit_is_certified_and_exact(self, n, p, penalty, loss, intercept):
        rng = np.random.default_rng(n + p)
        X = rng.normal(size=(n, p))
        y = 2.0 + X[:, :4] @ np.array([1.0, -1.0, 0.5, 0.5]) + rng.standard_t(3, n)
        data = Dataset(X=X, y=y)
        options = FitOptions(intercept=intercept)
        result = fit(data, loss, penalty, options)
        assert result.converged
        assert result.newton_attempts >= 1
        b0 = result.intercept_hat if intercept else None
        assert kkt_residual(data, loss, penalty, result.beta_hat, b0) <= options.kkt_tolerance

        tight = fit(data, loss, penalty, FitOptions(intercept=intercept, kkt_tolerance=1e-12))
        np.testing.assert_array_equal(result.active_set, tight.active_set)
        np.testing.assert_allclose(result.beta_hat, tight.beta_hat, rtol=0, atol=1e-7)
        assert result.intercept_hat == pytest.approx(tight.intercept_hat, abs=1e-7)

    def test_attempts_repeat_across_reruns(self):
        data = heavy_tail_lasso_data(60, 120)
        runs = [fit(data, HuberLoss(scale=0.5), ElasticNet(lam=0.01)) for _ in range(2)]
        assert runs[0].newton_attempts > 0
        assert runs[0].newton_attempts == runs[1].newton_attempts
        assert runs[0].iterations == runs[1].iterations
        assert runs[0].beta_hat.tobytes() == runs[1].beta_hat.tobytes()

    def test_singular_newton_system_falls_back_to_fista(self, monkeypatch):
        """A duplicated column with tau = 0 makes the Newton system exactly
        singular: LU meets a zero pivot (a Cholesky factor of the same
        matrix can round to a positive one), the attempt fails, and FISTA
        reaches its own certificate."""
        solves = []

        def recording(a, b):
            try:
                x = original(a, b)
            except np.linalg.LinAlgError:
                solves.append("singular")
                raise
            solves.append("solved")
            return x

        original = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", recording)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 5))
        X = np.column_stack([X, X[:, 0]])
        data = Dataset(X=X, y=2.0 * X[:, 0] + X[:, 1] + 0.1 * rng.normal(size=30))
        penalty = ElasticNet(lam=0.05)
        result = fit(data, make_loss("square"), penalty)
        assert "singular" in solves
        assert result.converged
        assert result.beta_hat[0] == result.beta_hat[5] != 0.0
        assert kkt_residual(data, make_loss("square"), penalty, result.beta_hat) <= 1e-8

    def test_iteration_count_gate(self):
        """A fixed p > n Huber grid needs under half its earlier iterations.

        Measured with single-threaded BLAS over the 8 fits: FISTA alone took
        66,244 iterations, and 9,925 with a plain-step stagnation fallback
        beside the polish. With the polish as the only terminal phase and
        the exact step bound they take 2,094 (39, 33, 69, 51, 669, 183, 639
        and 411, as pinned below).
        """
        rng = np.random.default_rng(7)
        X = rng.standard_normal((60, 120))
        y = X[:, :3].sum(1) + rng.standard_t(2, 60)
        data = Dataset(X=X, y=y)
        total = sum(
            fit(data, HuberLoss(scale=0.5), ElasticNet(lam=lam, tau=tau)).iterations
            for lam in (0.08, 0.04, 0.02, 0.01)
            for tau in (0.0, 1e-3)
        )
        assert total <= 9_925 // 2

    def test_iteration_and_attempt_counts_are_pinned(self):
        """The same grid, cell by cell: iterations and Newton attempts.

        A change to the loop that keeps its arithmetic keeps these counts;
        one that moves a rounding anywhere shows up here first.
        """
        rng = np.random.default_rng(7)
        X = rng.standard_normal((60, 120))
        y = X[:, :3].sum(1) + rng.standard_t(2, 60)
        data = Dataset(X=X, y=y)
        counts = []
        for lam in (0.08, 0.04, 0.02, 0.01):
            for tau in (0.0, 1e-3):
                result = fit(data, HuberLoss(scale=0.5), ElasticNet(lam=lam, tau=tau))
                counts.append((result.iterations, result.newton_attempts))
        assert counts == [
            (39, 4), (33, 3), (69, 3), (51, 2), (669, 7), (183, 3), (639, 7), (411, 7)
        ]


# One design below n p = 200,000 and one above: the KKT checks run on one
# schedule at every size.
CADENCE_SIZES = pytest.mark.parametrize(
    "n,p", [(60, 120), (250, 1000)], ids=["np7200", "np250000"]
)


class TestKktCheckSchedule:
    @CADENCE_SIZES
    def test_fits_stop_on_a_check(self, n, p):
        """A fit that does not exit at its start point stops at a KKT check,
        whether FISTA or a Newton attempt certified it."""
        data = heavy_tail_lasso_data(n, p)
        stops = [
            fit(data, loss, ElasticNet(lam=lam, tau=tau), FitOptions(intercept=icpt)).iterations
            for loss in (HuberLoss(scale=0.5), make_loss("square"))
            for lam, tau in ((0.2, 0.0), (0.05, 0.01), (0.02, 0.0))
            for icpt in (False, True)
        ]
        assert any(stops)
        assert [k % KKT_CHECK_EVERY for k in stops] == [0] * len(stops)

    @CADENCE_SIZES
    def test_warm_start_at_its_pattern_is_polished_at_the_first_check(self, n, p):
        """A Newton attempt needs the same pattern at two consecutive checks,
        the start point's among them, so a start with the solution's signs
        and inliers is polished, and certified, at the first loop check."""
        data = heavy_tail_lasso_data(n, p)
        loss, penalty = HuberLoss(scale=0.5), ElasticNet(lam=0.05, tau=0.01)
        cold = fit(data, loss, penalty)
        warm = fit(data, loss, penalty, FitOptions(initial_point=cold.beta_hat * (1 + 1e-5)))
        assert (warm.iterations, warm.newton_attempts) == (KKT_CHECK_EVERY, 1)
        assert warm.converged
        np.testing.assert_array_equal(warm.active_set, cold.active_set)


# Orders of the sensitivity system, from a scalar to select_wide's sizes.
FACTOR_ORDERS = [1, 2, 63, 64, 65, 129, 500]


def factor_case(m, inliers, tau):
    """(X, bundle) of a Huber fit (scale 1) with p_hat = m on m + 7 rows:
    the first `inliers` residuals are 0 (psi' = 1, the rows of Z), the
    others 5."""
    X = np.random.default_rng(m).normal(size=(m + 7, m))
    result = FitResult(
        beta_hat=np.full(m, 0.5),
        intercept_hat=0.0,
        residuals=np.r_[np.zeros(inliers), np.full(m + 7 - inliers, 5.0)],
        active_set=np.arange(m),
        iterations=1,
        kkt_residual=0.0,
        converged=True,
        with_intercept=False,
        objective=0.0,
    )
    data = Dataset(X=X, y=np.zeros(m + 7))
    bundle = sensitivity_closed_form(data, HuberLoss(scale=1.0), ElasticNet(tau=tau), result)
    return X, bundle


class TestFactorHelpers:
    """The package's own factor routines, both in sensitivity.py: the
    eigenvalues of the smaller Gram side (df and the rank) and the inverse
    of the primal system (A_hat)."""

    @pytest.mark.parametrize("m", FACTOR_ORDERS)
    def test_a_hat_inverts_the_primal_system(self, m):
        """Z of full rank m: df = m at tau = 0, and with c = n tau = 1,
        A_hat (Z'Z + I) = I and df = m - trace A_hat."""
        _, bundle = factor_case(m, m + 5, 0.0)
        assert (bundle.system, bundle.rank, bundle.df) == ("primal", m, float(m))
        X, bundle = factor_case(m, m + 5, 1.0 / (m + 7))
        Z, A = X[: m + 5], a_hat(bundle, X)
        G = Z.T @ Z + np.eye(m)
        assert np.abs(A @ G - np.eye(m)).max() <= 1e-12
        assert bundle.df == pytest.approx(m - np.trace(A), rel=1e-12)

    @pytest.mark.parametrize("m", FACTOR_ORDERS)
    def test_not_positive_definite_raises(self, m):
        """m - 1 inlier rows leave Z'Z of rank m - 1, singular at tau = 0:
        df is that rank, and a_hat raises SingularSystem."""
        X, bundle = factor_case(m, m - 1, 0.0)
        assert (bundle.rank, bundle.df) == (m - 1, float(m - 1))
        with pytest.raises(SingularSystem):
            a_hat(bundle, X)


class TestKktResidual:
    def test_zero_point_optimal_when_scores_below_lam(self):
        """max_j |(1/n) x_j' y| = 0.7 < lam = 1: zero is stationary."""
        X = np.array([[1.0], [1.0]])
        y = np.array([0.7, 0.7])
        data = Dataset(X=X, y=y)
        penalty = ElasticNet(lam=1.0)
        assert kkt_residual(data, make_loss("square"), penalty, np.zeros(1)) == 0.0
        result = fit(data, make_loss("square"), penalty)
        assert result.iterations == 0
        np.testing.assert_array_equal(result.beta_hat, np.zeros(1))

    def test_residual_scales_with_perturbation(self):
        """Perturbing the scalar-ridge optimum by delta gives exactly 2*delta.

        At b = 1/2 + delta the score is 1/2 - delta and the stationarity
        term is tau*b = 1/2 + delta, so the KKT residual is 2*delta.
        """
        data = Dataset(X=np.array([[1.0]]), y=np.array([1.0]))
        penalty = ElasticNet(tau=1.0)
        delta = 1e-3
        res = kkt_residual(data, make_loss("square"), penalty, np.array([0.5 + delta]))
        assert res == pytest.approx(2 * delta, rel=1e-9)
        assert kkt_residual(data, make_loss("square"), penalty, np.array([0.5])) <= 1e-15

    def test_intercept_term_included(self):
        data = Dataset(X=np.array([[1.0], [2.0]]), y=np.array([1.0, 3.0]))
        loss = make_loss("square")
        penalty = ElasticNet(tau=0.5)
        # With intercept=None only the coordinate terms count; passing a
        # non-stationary intercept must raise the residual.
        base = kkt_residual(data, loss, penalty, np.zeros(1), intercept=None)
        with_b0 = kkt_residual(data, loss, penalty, np.zeros(1), intercept=-5.0)
        assert with_b0 > base

    @pytest.mark.parametrize(
        "beta", [np.zeros(2), np.array([1.0, 0.0])], ids=["inactive", "active"]
    )
    def test_nan_score_is_never_stationary(self, beta):
        """A NaN score on any coordinate, active or not, gives NaN."""
        gap = _kkt_score_gap(np.array([np.nan, 0.1]), beta, ElasticNet(0.5, 0.0))
        assert np.isnan(gap)
        assert not gap <= 1e-8  # so no stopping rule can accept it


class TestFailureModes:
    def test_ill_posed_unpenalized_wide(self):
        data = Dataset(X=np.random.default_rng(0).normal(size=(2, 3)), y=np.zeros(2))
        with pytest.raises(IllPosed):
            fit(data, make_loss("square"), ElasticNet(lam=0.0, tau=0.0))

    def test_ill_posed_unpenalized_square_with_intercept(self):
        """p = n is solvable alone, but the intercept makes p + 1 > n."""
        rng = np.random.default_rng(0)
        data = Dataset(X=rng.normal(size=(5, 5)), y=rng.normal(size=5))
        penalty = ElasticNet(lam=0.0, tau=0.0)
        assert fit(data, make_loss("square"), penalty).converged
        with pytest.raises(IllPosed, match=r"p \+ 1 \(6\) > n \(5\)"):
            fit(data, make_loss("square"), penalty, FitOptions(intercept=True))

    def test_rows_summing_to_zero_are_not_a_zero_design(self):
        """Rows (k, -k) are orthogonal to the uniform vector, where a power
        iteration starts; the fit must still move off zero and certify."""
        k = np.arange(1.0, 5.0)
        data = Dataset(X=np.column_stack([k, -k]), y=2.0 * k)
        penalty = ElasticNet(lam=0.1, tau=0.1)
        result = fit(data, make_loss("square"), penalty)
        assert result.converged
        assert result.iterations > 0
        assert kkt_residual(data, make_loss("square"), penalty, result.beta_hat) <= 1e-8

    def test_nonconvergence_carries_partial_result(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 60))
        y = rng.normal(size=40)
        data = Dataset(X=X, y=y)
        with pytest.raises(NonConvergence) as excinfo:
            fit(data, make_loss("square"), ElasticNet(lam=1e-4, tau=1e-8),
                FitOptions(max_iterations=3, kkt_tolerance=1e-14))
        partial = excinfo.value.result
        assert partial is not None
        assert not partial.converged
        assert partial.beta_hat.shape == (60,)
        assert partial.kkt_residual > 1e-14
        assert np.all(np.isfinite(partial.beta_hat))

    def test_options_validation(self):
        with pytest.raises(ValueError):
            FitOptions(max_iterations=0)
        for tolerance in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="kkt_tolerance"):
                FitOptions(kkt_tolerance=tolerance)

    @pytest.mark.parametrize(
        "X, y, message",
        [
            (np.ones(3), np.ones(3), "must be 2-D"),
            (np.ones((2, 3, 1)), np.ones(2), "must be 2-D"),
            (np.ones((0, 2)), np.ones(0), "n >= 1 rows and p >= 1 columns"),
            (np.ones((3, 0)), np.ones(3), "n >= 1 rows and p >= 1 columns"),
            (np.ones((2, 1)), np.array([1.0, np.nan]), "response contains non-finite"),
        ],
        ids=["1-d", "3-d", "no-rows", "no-columns", "response-nan"],
    )
    def test_dataset_validation(self, X, y, message):
        with pytest.raises(ValueError, match=message):
            Dataset(X=X, y=y)

    def test_initial_point_length_mismatch(self):
        data = Dataset(X=np.ones((3, 2)), y=np.zeros(3))
        with pytest.raises(ValueError):
            fit(data, make_loss("square"), ElasticNet(tau=0.1),
                FitOptions(initial_point=np.zeros(5)))
