"""Adaptive/oracle criteria and feasibility-constrained selection."""

import math
import os
import pickle
from dataclasses import fields

import numpy as np
import pytest

import hubertune.criterion
import hubertune.data

from hubertune import (
    Candidate,
    Dataset,
    DegenerateFit,
    ElasticNet,
    FitOptions,
    FitResult,
    HuberLoss,
    IllPosed,
    SensitivityBundle,
    crit_adaptive,
    crit_oracle_sigma,
    evaluate,
    evaluate_grid,
    fit,
    make_loss,
    out_of_sample_error,
    select,
    sensitivity_closed_form,
    trace_sigma_A,
)
from hubertune.criterion import DEFAULT_ETA, _cell_candidate


def _fit_case(seed=0, n=30, p=6, loss=None, penalty=None):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    beta = np.zeros(p)
    beta[: p // 2] = rng.normal(size=p // 2)
    y = X @ beta + 0.5 * rng.standard_normal(n)
    data = Dataset(X=X, y=y)
    loss = loss or make_loss("square")
    penalty = penalty or ElasticNet(lam=0.05, tau=0.1)
    result = fit(data, loss, penalty, FitOptions(kkt_tolerance=1e-11))
    bundle = sensitivity_closed_form(data, loss, penalty, result)
    return data, loss, penalty, result, bundle


def synth_candidate(residuals, df, trace_v, n_hat=None, loss=None):
    """Candidate scored from a synthetic fit and bundle with chosen fields."""
    r = np.asarray(residuals, dtype=float)
    n = r.size
    n_hat = float(n if n_hat is None else n_hat)
    loss = loss or make_loss("square")
    fit_result = FitResult(
        beta_hat=np.array([1.0]),
        intercept_hat=0.0,
        residuals=r,
        active_set=np.array([0]),
        iterations=1,
        kkt_residual=0.0,
        converged=True,
        with_intercept=False,
        objective=0.0,
    )
    bundle = SensitivityBundle(
        df=float(df),
        trace_V=float(trace_v),
        n_hat=n_hat,
        p_hat=1,
        psi_diag=loss.psi(r),
        psi_prime_diag=loss.psi_prime(r),
        active_set=np.array([0]),
        tau_eff=0.0,
        p=1,
        with_intercept=False,
        system="primal",
        system_size=1,
        rank=1,
    )
    criterion = crit_adaptive(fit_result, bundle, loss)
    return Candidate(loss, ElasticNet(lam=0.0), fit_result, bundle, criterion, DEFAULT_ETA)


class TestCritAdaptive:
    def test_square_loss_identity(self):
        """Square loss: crit = ||r||^2 * (n/(n-df))^2 since trace_V = n - df."""
        data, loss, penalty, result, bundle = _fit_case(1)
        crit = crit_adaptive(result, bundle, loss)
        n = data.n
        r2 = float(result.residuals @ result.residuals)
        expected = r2 * (n / (n - bundle.df)) ** 2
        assert crit == pytest.approx(expected, rel=1e-8)

    def test_zero_df_reduces_to_residual_norm(self):
        """Fully shrunk fit: df = 0, so crit is exactly ||r||^2."""
        data, loss, penalty, result, bundle = _fit_case(2, penalty=ElasticNet(lam=50.0))
        assert bundle.p_hat == 0 and bundle.df == 0.0
        cand = evaluate(data, loss, penalty, FitOptions(kkt_tolerance=1e-11))
        assert cand.crit_adaptive == pytest.approx(
            float(result.residuals @ result.residuals), rel=1e-12
        )
        assert cand.ratio == 0.0

    def test_reassembly_from_parts(self):
        """The ratio and criterion recombine into the defining expression at 1e-12."""
        data, loss, penalty, result, bundle = _fit_case(
            3, loss=HuberLoss(scale=0.8), penalty=ElasticNet(lam=0.04, tau=0.08)
        )
        cand = evaluate(data, loss, penalty, FitOptions(kkt_tolerance=1e-11))
        combined = result.residuals + cand.ratio * loss.psi(result.residuals)
        assert cand.crit_adaptive == pytest.approx(
            float(combined @ combined), rel=1e-12
        )
        assert cand.ratio == pytest.approx(bundle.df / bundle.trace_V, rel=1e-14)
        # The same formula as the oracle criterion, at t_hat = df / trace V.
        oracle = crit_oracle_sigma(result, loss, bundle.df / bundle.trace_V)
        crit = crit_adaptive(result, bundle, loss)
        assert np.float64(crit).tobytes() == np.float64(oracle).tobytes()

    def test_constraint_fields(self):
        data, loss, penalty, result, bundle = _fit_case(
            4, loss=HuberLoss(scale=0.5), penalty=ElasticNet(lam=0.04, tau=0.08)
        )
        cand = evaluate(data, loss, penalty, FitOptions(kkt_tolerance=1e-11), eta=0.25)
        hand = float(np.sum(np.abs(result.residuals) <= 0.5)) / data.n
        assert cand.constraint_value == pytest.approx(hand, abs=0)
        assert cand.constraint_ok == (hand >= 0.25)
        assert cand.eta == 0.25

    def test_flagged_when_trace_v_vanishes(self):
        cand = synth_candidate([1.0, 2.0], df=1.0, trace_v=0.0)
        assert math.isnan(crit_adaptive(cand.result, cand.bundle, cand.loss))
        assert not cand.crit_defined
        assert math.isnan(cand.crit_adaptive)
        assert math.isnan(cand.ratio)
        assert not cand.constraint_ok
        assert not cand.feasible
        assert cand.reason == "criterion undefined: trace of V is numerically zero"


class TestCritOracle:
    def test_square_loss_closed_form(self):
        """Square loss: oracle crit = (1 + trace[Sigma A])^2 ||r||^2."""
        data, loss, penalty, result, bundle = _fit_case(5)
        rng = np.random.default_rng(0)
        W = rng.normal(size=(2 * data.p, data.p))
        Sigma = W.T @ W / (2 * data.p)
        tsa = trace_sigma_A(bundle, data.X, Sigma)
        value = crit_oracle_sigma(result, loss, tsa)
        r2 = float(result.residuals @ result.residuals)
        assert value == pytest.approx((1 + tsa) ** 2 * r2, rel=1e-12)


class TestOutOfSampleError:
    def test_zero_at_truth(self):
        Sigma = np.eye(3)
        assert out_of_sample_error(np.ones(3), np.ones(3), Sigma) == 0.0

    def test_identity_covariance(self):
        assert out_of_sample_error(
            np.array([1.0, 1.0]), np.array([0.0, 0.0]), np.eye(2)
        ) == pytest.approx(2.0, abs=0)

    def test_eigendecomposition_oracle(self):
        """diff' Sigma diff equals sum_i lambda_i <q_i, diff>^2 at 1e-12."""
        rng = np.random.default_rng(6)
        p = 7
        W = rng.normal(size=(2 * p, p))
        Sigma = W.T @ W / (2 * p)
        beta_hat = rng.normal(size=p)
        beta_star = rng.normal(size=p)
        vals, vecs = np.linalg.eigh(Sigma)
        diff = beta_hat - beta_star
        oracle = float(np.sum(vals * (vecs.T @ diff) ** 2))
        assert out_of_sample_error(beta_hat, beta_star, Sigma) == pytest.approx(
            oracle, rel=1e-12
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            out_of_sample_error(np.ones(3), np.ones(3), np.eye(2))


class TestSelect:
    def test_picks_smallest_criterion(self):
        cands = [
            synth_candidate([np.sqrt(5.0)], df=0.0, trace_v=1.0),
            synth_candidate([np.sqrt(3.0)], df=0.0, trace_v=1.0),
            synth_candidate([2.0], df=0.0, trace_v=1.0),
        ]
        ranking = select(cands)
        assert ranking[0] == 1
        assert ranking == (1, 2, 0)
        assert [c.feasible for c in cands] == [True, True, True]
        crits = [c.crit_adaptive for c in cands]
        assert crits == pytest.approx([5.0, 3.0, 4.0])

    def test_tie_breaks_to_smallest_index(self):
        cands = [
            synth_candidate([1.0], df=0.0, trace_v=1.0),
            synth_candidate([1.0], df=0.0, trace_v=1.0),
        ]
        assert select(cands)[0] == 0

    def test_infeasible_candidate_skipped_but_reported(self):
        """The lowest criterion loses when its constraint fails."""
        winner_by_crit = synth_candidate([0.5], df=0.0, trace_v=1.0, n_hat=0.01)
        runner_up = synth_candidate([2.0], df=0.0, trace_v=1.0)
        ranking = select([winner_by_crit, runner_up])
        assert ranking[0] == 1
        assert ranking == (1,)
        assert (winner_by_crit.feasible, runner_up.feasible) == (False, True)

    def test_undefined_criterion_skipped(self):
        broken = synth_candidate([0.1], df=1.0, trace_v=0.0)
        fine = synth_candidate([3.0], df=0.0, trace_v=1.0)
        ranking = select([broken, fine])
        assert ranking[0] == 1
        assert (broken.feasible, fine.feasible) == (False, True)

    def test_all_infeasible_raises(self):
        cands = [
            synth_candidate([1.0], df=0.0, trace_v=1.0, n_hat=0.0),
            synth_candidate([2.0], df=0.0, trace_v=1.0, n_hat=0.0),
        ]
        assert select(cands) == ()

    def test_empty_raises(self):
        assert select([]) == ()

    def test_residual_scale_does_not_change_ranking(self):
        """Scaling the residuals scales every criterion; the argmin stays."""
        base = [
            synth_candidate([2.0, 1.0], df=0.0, trace_v=2.0),
            synth_candidate([1.0, 0.5], df=0.0, trace_v=2.0),
            synth_candidate([3.0, 0.1], df=0.0, trace_v=2.0),
        ]
        scaled = [
            synth_candidate(7.0 * c.result.residuals, df=0.0, trace_v=2.0)
            for c in base
        ]
        assert select(base) == select(scaled)

    def test_recomputation_identical(self):
        def build():
            return [
                synth_candidate([1.3, -0.2], df=0.5, trace_v=1.5),
                synth_candidate([0.9, 0.4], df=0.25, trace_v=1.75),
            ]

        cands_a, cands_b = build(), build()
        assert select(cands_a) == select(cands_b)
        for ca, cb in zip(cands_a, cands_b):
            assert ca.summary() == cb.summary()  # bit-identical floats


class TestEvaluate:
    def test_matches_the_hand_written_pipeline(self):
        data, loss, penalty, result, bundle = _fit_case(
            7, loss=HuberLoss(scale=0.8), penalty=ElasticNet(lam=0.04, tau=0.08)
        )
        cand = evaluate(data, loss, penalty, FitOptions(kkt_tolerance=1e-11), eta=0.2)
        assert cand.warning is None
        assert np.array_equal(cand.result.beta_hat, result.beta_hat)
        assert cand.bundle.df == bundle.df and cand.bundle.trace_V == bundle.trace_V
        assert cand.crit_adaptive == crit_adaptive(result, bundle, loss)
        assert cand.eta == 0.2
        assert cand.feasible == (cand.constraint_value >= 0.2)
        below = f"constraint value {cand.constraint_value} below eta 0.2"
        assert cand.reason == (None if cand.feasible else below)

    def test_nonconvergence_keeps_the_best_iterate(self):
        data, loss, penalty, _, _ = _fit_case(8)
        cand = evaluate(data, loss, penalty, FitOptions(max_iterations=2, kkt_tolerance=1e-14))
        assert not cand.result.converged
        assert cand.warning.startswith("iteration cap 2 reached")
        assert math.isfinite(cand.crit_adaptive) and cand.bundle is not None

    @pytest.mark.parametrize("intercept", [False, True])
    def test_grid_fits_as_each_cell_alone(self, intercept):
        """The shared step-size bound leaves every fit bit-identical."""
        data, _, _, _, _ = _fit_case(10, n=40, p=8)
        cells = [
            (HuberLoss(1.0), ElasticNet(lam=0.02, tau=0.05)),
            (HuberLoss(math.inf), ElasticNet(lam=0.1, tau=0.0)),
        ]
        options = FitOptions(intercept=intercept)
        grid = evaluate_grid(data, cells, options)
        for cell, cand in zip(cells, grid):
            fresh = Dataset(data.X, data.y)
            alone = fit(fresh, *cell, options)
            assert cand.result.iterations == alone.iterations
            assert np.array_equal(cand.result.beta_hat, alone.beta_hat)


class TestSummary:
    """Candidate.summary() holds each reported number under one name."""

    @staticmethod
    def candidates():
        data, loss, penalty, _, _ = _fit_case(7, loss=HuberLoss(scale=0.8))
        converged = evaluate(data, loss, penalty, FitOptions(kkt_tolerance=1e-11))
        capped = evaluate(data, loss, penalty, FitOptions(max_iterations=1))
        undefined = synth_candidate([1.0, 2.0], df=1.0, trace_v=0.0)
        assert converged.result.converged and not capped.result.converged
        assert not undefined.crit_defined
        return [converged, capped, undefined]

    def test_every_value_is_its_source(self):
        for cand in self.candidates():
            result, bundle = cand.result, cand.bundle
            sources = {
                "converged": result.converged,
                "iterations": result.iterations,
                "newton_attempts": result.newton_attempts,
                "df": bundle.df,
                "trace_v": bundle.trace_V,
                "n_hat": bundle.n_hat,
                "p_hat": bundle.p_hat,
                "tau_eff": bundle.tau_eff,
                "crit_adaptive": cand.crit_adaptive,
                "ratio": cand.ratio,
                "constraint_value": cand.constraint_value,
                "constraint_ok": cand.constraint_ok,
                "eta": cand.eta,
                "crit_defined": cand.crit_defined,
                "feasible": cand.feasible,
                "reason": cand.reason,
            }
            summary = cand.summary()
            assert list(summary) == list(sources)
            for key, value in sources.items():
                if isinstance(value, float) and math.isnan(value):
                    assert math.isnan(summary[key]), key
                else:
                    assert type(summary[key]) is type(value), key
                    assert summary[key] == value, key

    def test_every_listed_name_is_a_key(self):
        """The names fit, select and simulate take are all keys, and
        newton_attempts is one that none of their lists writes."""
        import hubertune.cli as cli
        import hubertune.simulate as simulate

        lists = [
            cli.FIT_SENSITIVITY_KEYS,
            cli.FIT_CRITERION_KEYS,
            cli.SELECT_ENTRY_KEYS,
            simulate.SUMMARY_COLUMNS,
        ]
        for cand in self.candidates():
            summary = cand.summary()
            for names in lists:
                assert set(names) <= set(summary), names
            assert "newton_attempts" in summary
        for names in lists + [simulate.GRID_COLUMNS]:
            assert "newton_attempts" not in names


def _wide_case():
    """30 x 60 design: Huber scale 0.2 keeps more active columns than inliers
    (a dual bundle), square loss at lambda 0.3 fewer (a primal one)."""
    rng = np.random.default_rng(5)
    X = rng.standard_normal((30, 60))
    y = X[:, :5] @ np.ones(5) + rng.standard_t(3, 30)
    cells = [
        (HuberLoss(0.2), ElasticNet(lam=0.02, tau=0.05)),
        (HuberLoss(math.inf), ElasticNet(lam=0.3, tau=0.05)),
        (HuberLoss(0.2), ElasticNet(lam=0.05, tau=0.05)),
    ]
    return Dataset(X, y), cells


def _assert_same_fields(a, b):
    for f in fields(a):
        if f.compare:
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y, f.name


class TestEvaluateGridJobs:
    """Cells on several processes give the candidates of the serial run."""

    @pytest.mark.parametrize("intercept", [False, True])
    def test_parallel_candidates_equal_serial(self, intercept):
        data, cells = _wide_case()
        options = FitOptions(kkt_tolerance=1e-11, intercept=intercept)
        serial = evaluate_grid(data, cells, options, eta=0.1, jobs=1)
        parallel = evaluate_grid(data, cells, options, eta=0.1, jobs=2)
        assert [c.bundle.system for c in parallel] == ["dual", "primal", "dual"]
        for a, b in zip(serial, parallel):
            assert (a.loss, a.penalty, a.crit_adaptive, a.eta) == (
                b.loss, b.penalty, b.crit_adaptive, b.eta
            )
            assert a.warning == b.warning
            _assert_same_fields(a.result, b.result)
            _assert_same_fields(a.bundle, b.bundle)

    def test_a_candidate_carries_no_design(self):
        """A candidate pickles to fewer bytes than its 40 x 2000 design
        (640 kB), from evaluate and from evaluate_grid on two processes."""
        rng = np.random.default_rng(11)
        X = rng.standard_normal((40, 2000))
        data = Dataset(X, X[:, :3] @ np.ones(3) + rng.standard_normal(40))
        cells = [
            (HuberLoss(1.0), ElasticNet(lam=0.3, tau=0.05)),
            (HuberLoss(math.inf), ElasticNet(lam=0.5, tau=0.1)),
        ]
        candidates = [evaluate(data, loss, penalty) for loss, penalty in cells]
        candidates += evaluate_grid(data, cells, jobs=2)
        for cand in candidates:
            assert len(pickle.dumps(cand)) < data.X.nbytes

    def test_a_worker_returns_no_copy_of_the_design(self):
        data, cells = _wide_case()
        options = FitOptions(kkt_tolerance=1e-11)
        for cell in cells:
            cand = _cell_candidate(data, options, 0.1, cell)
            assert data.X.tobytes() not in pickle.dumps(cand)

    @pytest.mark.parametrize("intercept", [False, True])
    def test_one_step_bound_per_grid_and_none_in_workers(
        self, step_bounds, monkeypatch, intercept
    ):
        recording, parent = hubertune.data.largest_singular_value, os.getpid()

        def parent_only(X):
            assert os.getpid() == parent, "a worker computed a step bound"
            return recording(X)

        monkeypatch.setattr(hubertune.data, "largest_singular_value", parent_only)
        data, cells = _wide_case()
        evaluate_grid(data, cells, FitOptions(intercept=intercept), jobs=2)
        assert step_bounds == [(30, 61 if intercept else 60)]

    def test_costliest_cells_go_first_and_come_back_in_grid_order(self, monkeypatch):
        """Cells run by smaller lambda, then smaller tau, then grid index,
        for every jobs count; the candidates equal the serial ones, in grid
        order."""
        data, _ = _wide_case()
        cells = [
            (HuberLoss(0.2), ElasticNet(lam=0.3, tau=0.05)),
            (HuberLoss(0.2), ElasticNet(lam=0.02, tau=0.1)),
            (HuberLoss(math.inf), ElasticNet(lam=0.05, tau=0.0)),
            (HuberLoss(0.2), ElasticNet(lam=0.02, tau=0.05)),
            (HuberLoss(math.inf), ElasticNet(lam=0.02, tau=0.1)),
        ]
        options = FitOptions(kkt_tolerance=1e-11)
        serial = evaluate_grid(data, cells, options, eta=0.1, jobs=1)

        dispatched, original = [], hubertune.criterion.map_items

        def recording(fn, shared, items, jobs):
            dispatched.append(list(items))
            return original(fn, shared, items, jobs)

        monkeypatch.setattr(hubertune.criterion, "map_items", recording)
        parallel = evaluate_grid(data, cells, options, eta=0.1, jobs=2)
        assert dispatched == [[cells[i] for i in (3, 1, 4, 2, 0)]]
        assert [c.penalty for c in parallel] == [penalty for _, penalty in cells]
        for a, b in zip(serial, parallel):
            assert (a.loss, a.penalty, a.crit_adaptive, a.eta) == (
                b.loss, b.penalty, b.crit_adaptive, b.eta
            )
            assert a.warning == b.warning
            _assert_same_fields(a.result, b.result)
            _assert_same_fields(a.bundle, b.bundle)

        dispatched.clear()
        evaluate_grid(data, cells, options, eta=0.1, jobs=1)
        assert dispatched == [[cells[i] for i in (3, 1, 4, 2, 0)]]

    def test_the_same_failing_cell_raises_for_every_jobs_count(self):
        """A DegenerateFit cell (every residual beyond a tiny Huber scale)
        ahead of an IllPosed one (no penalty, p + 1 > n) in grid order: the
        cells run in the same order serially and on a pool, so both raise
        the IllPosed cell's error."""
        data, _ = _wide_case()
        degenerate = (HuberLoss(1e-6), ElasticNet(lam=0.0, tau=1.0))
        ill_posed = (HuberLoss(math.inf), ElasticNet(lam=0.0, tau=0.0))
        options = FitOptions(intercept=True)
        with pytest.raises(DegenerateFit):
            evaluate_grid(data, [degenerate], options)
        for jobs in (1, 2):
            with pytest.raises(IllPosed):
                evaluate_grid(data, [degenerate, ill_posed], options, jobs=jobs)
