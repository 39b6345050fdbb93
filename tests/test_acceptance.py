"""End-to-end acceptance tests for the toolkit's shipped guarantees.

Each test pins one user-facing promise at desk scale: closed-form
derivatives agree with finite differences, the square-loss and ridge
special cases reduce to their textbook formulas, the tuning criteria
track true out-of-sample error in seeded Monte Carlo runs, standardized
residuals are approximately normal under heavy-tailed noise, the prox
identity holds to float precision on every fit, and the simulation
harness is bit-for-bit deterministic.

All configurations and seeds are frozen, so every number below is
reproducible; tolerances were set from measured values with at least 3x
headroom. The whole module runs in about a minute on one core.
"""

import math

import numpy as np
import pytest

from hubertune import (
    Dataset,
    ElasticNet,
    FitOptions,
    a_hat,
    crit_adaptive,
    fit,
    generate,
    ks_normal,
    make_covariance,
    make_loss,
    parse_sim_config,
    residual_representation_check,
    run_derivative_checks,
    run_grid,
    sensitivity_closed_form,
    zeta_statistics,
)
from hubertune.cli import main

FEASIBILITY_ETA = 0.05


def heavy_tail_config(n, p, replications, base_seed):
    """Anisotropic design, sparse signal, t(2) noise, four feasible
    Huber + elastic-net cells with the transition point scaled as 0.054*sqrt(n)."""
    scale = 0.054 * math.sqrt(n)
    return parse_sim_config(
        {
            "n": n,
            "p": p,
            "sigma_seed": 1000,
            "noise_kind": {"kind": "student_t", "dof": 2},
            "signal_kind": "sparse",
            "grid": [
                {"huber_scale": scale, "lambda": lam, "tau": tau}
                for lam in (0.02, 0.04)
                for tau in (0.05, 0.1)
            ],
            "replications": replications,
            "base_seed": base_seed,
        }
    )


def feasible_records(records):
    return [
        rec
        for rec in records
        if not rec["failed"]
        and np.isfinite(rec["crit_adaptive"])
        and rec["constraint_value"] >= FEASIBILITY_ETA
    ]


@pytest.fixture(scope="module")
def heavy_tail_sim_400():
    return run_grid(heavy_tail_config(400, 200, 50, 20260401))


@pytest.fixture(scope="module")
def heavy_tail_sim_800():
    return run_grid(heavy_tail_config(800, 400, 50, 20260402))


@pytest.fixture(scope="module")
def contraction_check_reports():
    """Full derivative verification on the two standard check fixtures,
    with an extra coarse step to expose the truncation-scaling regime."""
    steps = (1e-2, 1e-3, 1e-4)
    combos = [
        (make_loss("huber", huber_scale=1.0), ElasticNet(lam=0.1, tau=0.1)),
        (make_loss("square"), ElasticNet(lam=0.0, tau=0.1)),
    ]
    return [
        run_derivative_checks(30, 10, loss, penalty, seed=0, contraction_steps=steps)
        for loss, penalty in combos
    ]


class TestDerivativeCorrectness:
    def test_closed_forms_match_finite_differences_on_twenty_instances(self):
        """Response Jacobian, df, and trace V from the closed forms agree
        with central finite differences on 20 seeded instances covering
        Huber+elastic-net and square+ridge at n in 25..34, p in 10..19."""
        combos = [
            (make_loss("huber", huber_scale=1.0), ElasticNet(lam=0.05, tau=0.05)),
            (make_loss("square"), ElasticNet(lam=0.0, tau=0.1)),
        ]
        for k in range(10):
            for combo, (loss, penalty) in enumerate(combos):
                report = run_derivative_checks(
                    25 + k,
                    10 + k,
                    loss,
                    penalty,
                    seed=100 * k + combo,
                    contraction_steps=(),
                )
                assert report["jacobian_rel_error"] <= 1e-3, (k, combo)
                assert report["df_abs_error"] <= 1e-3, (k, combo)
                assert report["trace_v_abs_error"] <= 1e-3, (k, combo)


class TestSquareLossIdentities:
    def test_trace_v_and_criterion_reduce_to_closed_forms(self):
        """With square loss, trace V equals n - df and the adaptive
        criterion equals n^2 ||r||^2 / (n - df)^2, on every fixture."""
        loss = make_loss("square")
        rng_specs = [
            (30, 10, 0.0, 0.1, False),
            (30, 10, 0.05, 0.05, False),
            (25, 12, 0.1, 0.01, True),
            (40, 8, 0.0, 0.5, True),
            (50, 20, 0.02, 0.002, False),
            (35, 15, 0.08, 0.2, True),
        ]
        for seed, (n, p, lam, tau, intercept) in enumerate(rng_specs):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((n, p))
            y = X @ (rng.standard_normal(p) / np.sqrt(p)) + rng.standard_normal(n)
            data = Dataset(X, y)
            penalty = ElasticNet(lam=lam, tau=tau)
            result = fit(data, loss, penalty, FitOptions(intercept=intercept))
            bundle = sensitivity_closed_form(data, loss, penalty, result)

            assert bundle.trace_V == pytest.approx(n - bundle.df, rel=1e-10)

            crit = crit_adaptive(result, bundle, loss)
            r = result.residuals
            closed = n**2 * float(r @ r) / (n - bundle.df) ** 2
            assert crit == pytest.approx(closed, rel=1e-8)


class TestRidgeClosedForm:
    def test_sensitivity_matrix_equals_direct_inverse(self):
        """For square loss with a pure ridge penalty the sensitivity matrix
        is exactly (X'X + tau*n*I)^{-1}, checked on 10 random instances."""
        loss = make_loss("square")
        for seed in range(10):
            rng = np.random.default_rng(7000 + seed)
            n = int(rng.integers(25, 60))
            p = int(rng.integers(5, 21))
            tau = float(rng.uniform(0.01, 0.5))
            X = rng.standard_normal((n, p))
            y = X @ rng.standard_normal(p) + rng.standard_normal(n)
            data = Dataset(X, y)
            penalty = ElasticNet(lam=0.0, tau=tau)
            result = fit(data, loss, penalty, FitOptions())
            bundle = sensitivity_closed_form(data, loss, penalty, result)

            assert bundle.p_hat == p
            direct = np.linalg.inv(X.T @ X + tau * n * np.eye(p))
            gap = np.linalg.norm(a_hat(bundle, X) - direct) / np.linalg.norm(direct)
            assert gap <= 1e-10, seed


class TestCriterionTracksRisk:
    def test_adaptive_ratio_approximates_oracle_trace(
        self, heavy_tail_sim_400, heavy_tail_sim_800
    ):
        """df / trace_V approximates trace[Sigma A]: the median gap over
        feasible heavy-tail cells is small at (400, 200) and strictly
        smaller again at (800, 400)."""

        def median_gap(records):
            recs = feasible_records(records)
            assert len(recs) >= 50
            return float(
                np.median(
                    [abs(r["trace_sigma_a"] - r["df"] / r["trace_v"]) for r in recs]
                )
            )

        gap_400 = median_gap(heavy_tail_sim_400)
        gap_800 = median_gap(heavy_tail_sim_800)
        assert gap_400 <= 0.05  # measured 0.0033
        assert gap_800 < gap_400  # measured 0.0012

    def test_criteria_track_out_of_sample_error(self, heavy_tail_sim_400):
        """Both the covariance-oracle criterion and the fully adaptive one
        track ||Sigma^(1/2)(beta_hat - beta*)||^2 + ||eps||^2/n per fit."""
        recs = feasible_records(heavy_tail_sim_400)
        assert len(recs) >= 50
        n = 400
        oracle_rel, adaptive_rel = [], []
        for rec in recs:
            target = rec["oos_error"] + rec["eps_norm_sq_over_n"]
            oracle_rel.append(abs(rec["crit_oracle"] / n - target) / target)
            adaptive_rel.append(abs(rec["crit_adaptive"] / n - target) / target)
        assert float(np.median(oracle_rel)) <= 0.10  # measured 0.019
        assert float(np.median(adaptive_rel)) <= 0.15  # measured 0.020


class TestResidualNormality:
    def test_standardized_first_residual_is_approximately_normal(self):
        """The debiased, standardized statistic for observation 1, collected
        over 300 heavy-tail replications at (400, 200), matches N(0, 1) in
        mean, variance, and Kolmogorov-Smirnov distance."""
        n, p = 400, 200
        config = heavy_tail_config(n, p, 1, 0)
        Sigma = make_covariance(p, 1000)
        beta_star = config.signal()
        loss = make_loss("huber", huber_scale=0.054 * math.sqrt(n))
        penalty = ElasticNet(lam=0.02, tau=0.05)
        options = FitOptions()

        samples = []
        for rep in range(300):
            data, eps = generate(
                n, p, Sigma, beta_star, config.noise_kind, 20260403 ^ rep
            )
            result = fit(data, loss, penalty, options)
            bundle = sensitivity_closed_form(data, loss, penalty, result)
            if bundle.n_hat / n < FEASIBILITY_ETA:
                continue
            zetas, _ = zeta_statistics(result, bundle, data.X, Sigma, beta_star, eps, loss)
            samples.append(zetas[0])

        z = np.array(samples)
        assert z.size >= 295  # measured: all 300 replications feasible
        assert abs(float(np.mean(z))) <= 0.10  # measured 0.006
        assert abs(float(np.var(z)) - 1.0) <= 0.15  # measured 0.058
        assert ks_normal(z) <= 0.08  # measured 0.039


class TestSelectionQuality:
    def test_selected_candidate_is_near_the_grid_minimum(self):
        """Minimizing the adaptive criterion over a 12-cell grid picks a
        candidate whose true out-of-sample error is within 0.1 of the grid
        minimum in at least 90% of 50 seeded replications."""
        n, p = 400, 200
        config = parse_sim_config(
            {
                "n": n,
                "p": p,
                "sigma_seed": 1000,
                "noise_kind": {"kind": "gaussian", "sigma": 1.0},
                "signal_kind": "sparse",
                "grid": [
                    {"huber_scale": 0.054 * math.sqrt(n), "lambda": lam, "tau": tau}
                    for lam in (0.01, 0.02, 0.04, 0.08)
                    for tau in (0.01, 0.05, 0.1)
                ],
                "replications": 50,
                "base_seed": 20260819,
            }
        )
        records = run_grid(config)

        by_rep = {}
        for rec in records:
            by_rep.setdefault(rec["replication"], []).append(rec)
        assert len(by_rep) == 50

        margins = []
        for rep, recs in sorted(by_rep.items()):
            assert len(recs) == 12
            feasible = [
                r
                for r in recs
                if not r["failed"]
                and np.isfinite(r["crit_adaptive"])
                and r["constraint_value"] >= FEASIBILITY_ETA
            ]
            assert feasible, rep
            selected = min(feasible, key=lambda r: r["crit_adaptive"])
            margins.append(selected["oos_error"] - min(r["oos_error"] for r in recs))

        within = sum(1 for m in margins if m <= 0.1)
        assert within >= 45  # measured 50/50, worst margin 0.091


class TestProxIdentity:
    def test_representation_gap_is_float_exact_on_every_fit(self):
        """r_i solves the prox fixed point z + t*psi(z) = u_i exactly: the
        reconstruction gap is at float precision for every loss/penalty/
        intercept combination and several debiasing factors t."""
        specs = [
            ("huber", 1.0, 0.05, 0.05, False),
            ("huber", 0.7, 0.0, 0.2, True),
            ("huber", 2.0, 0.15, 0.01, False),
            ("square", None, 0.05, 0.05, True),
            ("square", None, 0.0, 0.3, False),
            ("square", None, 0.1, 0.001, True),
        ]
        for seed, (kind, scale, lam, tau, intercept) in enumerate(specs):
            rng = np.random.default_rng(500 + seed)
            n, p = 40, 12
            X = rng.standard_normal((n, p))
            y = X @ (rng.standard_normal(p) / np.sqrt(p)) + rng.standard_normal(n)
            data = Dataset(X, y)
            loss = make_loss(kind, huber_scale=scale if scale else 1.0)
            penalty = ElasticNet(lam=lam, tau=tau)
            result = fit(data, loss, penalty, FitOptions(intercept=intercept))
            bundle = sensitivity_closed_form(data, loss, penalty, result)

            factors = [0.7]
            if bundle.trace_V > 0:
                factors.append(bundle.df / bundle.trace_V)
            for t in factors:
                gaps, _ = residual_representation_check(result, loss, t_hat=t)
                assert float(np.max(gaps)) <= 1e-10, (seed, t)


class TestDesignDerivativeIdentities:
    def test_all_five_identities_hold_on_check_fixtures(
        self, contraction_check_reports
    ):
        """The five summed design-derivative identities hold to 1e-3 at
        every finite-difference step on both standard check fixtures."""
        for report in contraction_check_reports:
            assert not report["failures"]
            for entry in report["contraction"]:
                assert entry["residuals"].shape == (5,)
                assert float(np.max(entry["residuals"])) <= 1e-3, entry["step"]

    def test_residuals_shrink_at_least_linearly_in_the_step(
        self, contraction_check_reports
    ):
        """Shrinking the FD step 10x shrinks each identity residual at
        least ~5x (measured: quadratically) until the solver-noise floor,
        so the residuals are true discretization error, not model error."""
        floor = 5e-6
        for report in contraction_check_reports:
            by_step = {e["step"]: e["residuals"] for e in report["contraction"]}
            coarse, fine = by_step[1e-2], by_step[1e-3]
            for k in range(5):
                assert fine[k] <= max(0.2 * coarse[k], floor), k


class TestHarnessDeterminism:
    def test_simulation_csv_is_byte_identical_across_runs_and_jobs(self, tmp_path):
        """The simulate command writes byte-identical records across
        repeat runs and across --jobs values."""
        config = tmp_path / "config.json"
        config.write_text(
            """
            {
              "n": 60, "p": 20, "sigma_seed": 3,
              "noise_kind": {"kind": "student_t", "dof": 2},
              "signal_kind": "sparse",
              "grid": [
                {"huber_scale": 1.2, "lambda": 0.05, "tau": 0.05},
                {"huber_scale": null, "lambda": 0.02, "tau": 0.1}
              ],
              "replications": 4, "base_seed": 11
            }
            """
        )
        outs = [tmp_path / f"records{i}.csv" for i in range(3)]
        assert main(["simulate", str(config), "--out", str(outs[0])]) == 0
        assert main(["simulate", str(config), "--out", str(outs[1])]) == 0
        assert (
            main(["simulate", str(config), "--out", str(outs[2]), "--jobs", "3"]) == 0
        )
        first = outs[0].read_bytes()
        assert len(first.splitlines()) == 1 + 8
        assert outs[1].read_bytes() == first
        assert outs[2].read_bytes() == first
