"""Accelerated proximal-gradient solver for penalized robust regression.

Minimizes F(b) = (1/n) * sum_i rho(y_i - b0 - x_i'b) + g(b) where rho is a
Huber loss (at scale inf, the square loss) and g an elastic-net penalty;
the optional intercept b0 is an extra unpenalized coordinate with a unit
column, excluded from the penalty and from the active set. Momentum
(FISTA) with a backtracking line search, restarting momentum whenever an
accelerated step fails to decrease the objective (O'Donoghue & Candes,
2015), so the objective is non-increasing across iterations. FISTA runs
until its own iterate meets the KKT tolerance or the KKT-certified Newton
polish below, the solver's terminal phase, returns a solved point.

The stopping rule is the KKT residual rather than the objective decrement:
the downstream sensitivity formulas assume stationarity at the returned
point, and the penalty prox produces exact zeros, which define the active
set with no epsilon thresholding.

Active-set Newton polish. psi' takes values in {0, 1}, so the objective
is piecewise quadratic: once the pattern (the signs of b, which residuals
are inliers, and the signs of the outliers) is known, the minimizer solves
one linear system with the sensitivity matrix,

    (X_S' D X_S + n tau I) b_S = X_S'(D y + psi(r) - D r) - n lam sign(b_S),

where D = diag{psi'(r)}, S is the active set, and an intercept joins S as an
unpenalized unit column. When the pattern has stayed the same over
PATTERN_CHECKS consecutive KKT checks, the solver solves that system for
b_S with one LU solve (LAPACK's gesv); an exactly singular system is a
failed attempt. The solved point is accepted only if its own KKT residual
is within the tolerance, the same certificate a FISTA iterate must meet;
otherwise FISTA carries on from its own iterate. A deterministic flop
budget gates the attempts, so results never depend on timing: with a FISTA
iteration budgeted at 6 n p flops and an attempt at n p_hat^2 + p_hat^3 / 3
(a budget, not a count of what LAPACK does), attempt k (from 0) waits
until the iterations so far cost at least 2^k attempts. In these units all
attempts together cost at most twice the FISTA work they interrupt, and
large active sets are rarely polished.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# largest_singular_value is re-exported: the solver's step bound comes from it.
from .data import Dataset, largest_singular_value
from .errors import IllPosed, NonConvergence
from .losses import HuberLoss
from .penalties import ElasticNet

# Consecutive KKT checks with an unchanged pattern before a Newton attempt.
PATTERN_CHECKS = 3


@dataclass(frozen=True)
class FitOptions:
    """Solver knobs.

    The step size is not among them: it comes from the dataset's cached top
    singular value (of [1 X] when an intercept is fitted, of X otherwise).
    """

    max_iterations: int = 50_000
    kkt_tolerance: float = 1e-8
    intercept: bool = False
    initial_point: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0 < self.kkt_tolerance < math.inf:
            raise ValueError("kkt_tolerance must be a finite number > 0")


@dataclass(frozen=True)
class FitResult:
    # kkt_residual and objective are the KKT gap and F at the returned point.
    beta_hat: np.ndarray
    intercept_hat: float
    residuals: np.ndarray
    active_set: np.ndarray
    iterations: int
    kkt_residual: float
    converged: bool
    with_intercept: bool
    objective: float
    # Newton polish attempts, successful or not; kept out of reports and CSVs.
    newton_attempts: int = 0


def _kkt_score_gap(g: np.ndarray, w: np.ndarray, penalty: ElasticNet, off=0) -> float:
    """Max distance of the score g = (1/n) X'psi(r) at w from the subdifferential.

    The first ``off`` coordinates are unpenalized (an intercept) and contribute
    |g_j|; active ones |g_j - lam*sign(w_j) - tau*w_j|, inactive ones
    max(0, |g_j| - lam). A NaN score anywhere gives NaN.
    """
    b = w[off:]
    gap = penalty.lam * np.sign(b)
    np.subtract(g[off:], gap, out=gap)
    gap -= penalty.tau * b
    np.abs(gap, out=gap)
    np.subtract(gap, penalty.lam, out=gap, where=b == 0.0)  # |g_j| - lam
    worst = float(np.maximum.reduce(gap, initial=0.0))
    return max(worst, abs(float(g[0]))) if off else worst


def fit(
    data: Dataset,
    loss: HuberLoss,
    penalty: ElasticNet,
    options: FitOptions | None = None,
) -> FitResult:
    """Solve the penalized M-estimation problem to KKT tolerance.

    Raises IllPosed when lam = tau = 0 with more coefficients than rows (p
    > n, or p + 1 > n with an intercept: no unique minimizer) and
    NonConvergence (carrying the best iterate, flagged) when the iteration
    cap is hit first.
    """
    if options is None:
        options = FitOptions()
    n, p = data.n, data.p
    use_icpt = options.intercept
    if penalty.lam == 0.0 and penalty.tau == 0.0 and p + use_icpt > n:
        width = f"p + 1 ({p + 1})" if use_icpt else f"p ({p})"
        raise IllPosed(
            f"no penalty and {width} > n ({n}): the minimizer is not unique"
        )

    Xa = data.X_with_intercept if use_icpt else data.X
    y = data.y
    off = 1 if use_icpt else 0

    # A zero design (never with an intercept: [1 X] has a unit column) makes
    # the loss constant in b, so b = 0 is optimal and the stationary-start
    # exit below returns it.
    sigma_max = data.sigma_max_with_intercept if use_icpt else data.sigma_max
    w = np.zeros(Xa.shape[1])
    if options.initial_point is not None:
        init = np.asarray(options.initial_point, dtype=float).ravel()
        if init.shape[0] != p:
            raise ValueError(
                f"initial_point length {init.shape[0]} does not match p={p}"
            )
        if sigma_max > 0.0:
            w[off:] = init

    def build_result(wvec, resid, iters, kkt, converged, attempts=0):
        beta = wvec[off:].copy()
        return FitResult(
            beta_hat=beta,
            intercept_hat=float(wvec[0]) if use_icpt else 0.0,
            residuals=resid.copy(),
            active_set=np.flatnonzero(beta != 0.0),
            iterations=iters,
            kkt_residual=float(kkt),
            converged=converged,
            with_intercept=use_icpt,
            objective=loss.mean_value_and_psi(resid)[0] + penalty.value(beta),
            newton_attempts=attempts,
        )

    def newton_point(wvec, psi_r, d):
        """Minimizer of the quadratic piece of F holding the current pattern.

        Returns (w, r, kkt) at the solved point when its KKT residual meets
        the tolerance, and None when it does not or the system is singular.
        """
        S = np.flatnonzero(wvec[off:]) + off
        if use_icpt:
            S = np.concatenate([[0], S])
        XS = Xa[:, S]
        X_in = XS[d != 0.0]  # D = diag{psi'(r)} with psi' in {0, 1}
        G = X_in.T @ X_in
        penalized = np.arange(off, S.size)
        G[penalized, penalized] += n * penalty.tau
        sign_S = np.sign(wvec[S])
        sign_S[:off] = 0.0
        # psi(r) = r wherever psi' = 1, so D y + psi(r) - D r is y on the
        # inliers and psi(r) elsewhere.
        rhs = XS.T @ np.where(d != 0.0, y, psi_r) - n * penalty.lam * sign_S
        w_new = np.zeros_like(wvec)
        try:
            w_new[S] = np.linalg.solve(G, rhs)
        except np.linalg.LinAlgError:
            return None
        r_new = y - Xa @ w_new
        kkt_new = _kkt_score_gap(Xa.T @ loss.psi(r_new) / n, w_new, penalty, off)
        if kkt_new <= options.kkt_tolerance:
            return w_new, r_new, kkt_new
        return None

    # The loop carries, for the accepted point w: Xw, r = y - Xw, psi(r),
    # the objective F, and the score (1/n) Xa'psi(r) once a KKT check has
    # computed it. Arrays are never written after they are accepted.
    Xw = Xa @ w
    r = y - Xw
    f, ps = loss.mean_value_and_psi(r)
    F = f + penalty.value(w[off:])

    # Immediate exit if the start point is already stationary.
    score = Xa.T @ ps / n
    kkt = _kkt_score_gap(score, w, penalty, off)
    if kkt <= options.kkt_tolerance:
        return build_result(w, r, 0, kkt, True)

    # Small cushion over the exact value, for rounding only.
    lip = 1.02 * (sigma_max * sigma_max / n)
    step0 = 1.0 / lip
    step_cap = 1e4 * step0

    # Check the KKT residual every iteration on small problems; on large
    # ones every few iterations to save a matrix-vector product per step.
    check_every = 1 if n * p <= 200_000 else 5

    w_prev, Xw_prev = w, Xw
    t_mom = 1.0
    step = step0
    best_kkt = kkt
    best_state = (w, r, 0)

    iterations = 0
    converged = False
    iteration_flops = 6 * n * Xa.shape[1]
    attempts = 0
    pattern, stable_checks, tried_pattern = None, 0, None
    for iterations in range(1, options.max_iterations + 1):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        omega = (t_mom - 1.0) / t_next
        z = w - w_prev
        z *= omega
        z += w
        Xz = Xw - Xw_prev
        Xz *= omega
        Xz += Xw
        f_z, ps_z = loss.mean_value_and_psi(y - Xz)
        # Gradient of the mean loss at z; -(1/n) X'psi, rounded as such.
        point, grad, f_pt, t = z, (Xa.T @ ps_z) / -n, f_z, min(step * 1.2, step_cap)
        for restart in (False, True):
            # One backtracked proximal step from `point`. The sufficient
            # decrease test is the usual quadratic upper bound; steps at or
            # below 1/L always pass it, so the floor accepts unconditionally.
            while True:
                w_new = point - t * grad
                penalty.prox_in_place(w_new[off:], t)
                Xw_new = Xa @ w_new
                r_new = y - Xw_new
                f_new, ps_new = loss.mean_value_and_psi(r_new)
                if t <= step0:
                    break
                dw = w_new - point
                # The test is exact: any relaxation lets grown steps hover
                # just above tight tolerances instead of converging.
                if f_new <= f_pt + float(grad @ dw) + float(dw @ dw) / (2.0 * t):
                    break
                t = max(0.5 * t, step0)
            F_new = f_new + penalty.value(w_new[off:])
            if restart or not F_new > F + 1e-15 * (1.0 + abs(F)):
                break
            # Accelerated step went uphill: restart momentum and take a plain
            # proximal step from the current point at the floor step, which
            # never increases the objective.
            t_next = 1.0
            grad = -score if score is not None else (Xa.T @ ps) / -n
            point, t = w, step0

        w_prev, w = w, w_new
        Xw_prev, Xw = Xw, Xw_new
        r, ps, score = r_new, ps_new, None
        F = min(F, F_new)
        t_mom = t_next
        step = t

        if iterations % check_every == 0 or iterations == options.max_iterations:
            score = Xa.T @ ps / n
            kkt = _kkt_score_gap(score, w, penalty, off)
            if kkt < best_kkt:
                best_kkt = kkt
                best_state = (w, r, iterations)
            if kkt <= options.kkt_tolerance:
                converged = True
                break

            # The pattern: the signs of b, and the outliers with their signs
            # (psi(r) - r is zero exactly on the inliers).
            new_pattern = np.sign(w[off:]).tobytes() + np.sign(ps - r).tobytes()
            if new_pattern == pattern:
                stable_checks += 1
            else:
                pattern, stable_checks = new_pattern, 1
            # The solved point depends on the pattern alone, so a pattern
            # that failed once is not tried again.
            if stable_checks >= PATTERN_CHECKS and pattern != tried_pattern:
                p_hat = int(np.count_nonzero(w[off:])) + off
                # The budget of an attempt (see the module docstring).
                attempt_flops = n * p_hat * p_hat + p_hat**3 / 3.0
                if iterations * iteration_flops >= 2**attempts * attempt_flops:
                    attempts += 1
                    tried_pattern = pattern
                    polished = newton_point(w, ps, loss.psi_prime(r))
                    if polished is not None:
                        w, r, kkt = polished
                        converged = True
                        break

    if converged:
        return build_result(w, r, iterations, kkt, True, attempts)

    w_best, r_best, it_best = best_state
    partial = build_result(w_best, r_best, it_best, best_kkt, False, attempts)
    raise NonConvergence(
        f"iteration cap {options.max_iterations} reached with KKT residual "
        f"{best_kkt:.3e} > tolerance {options.kkt_tolerance:.3e}",
        result=partial,
    )
