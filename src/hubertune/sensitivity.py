"""Sensitivity of the fitted coefficients to perturbations of (y, X).

With D = diag{psi'(r)} and S the active set, the sensitivity matrix is

    A_hat = (X_S' D X_S + n * tau * I)^{-1}   (zero off the active set).

It gives the Jacobian of beta_hat in y (columns A_hat X'e_i psi'(r_i)), the
Jacobian in single design entries, the effective degrees of freedom
df = trace[X dbeta/dy], and trace of V = diag{psi'(r)}(I - X dbeta/dy) —
V itself is never materialized; only its trace and products are exposed.

Both losses have psi' in {0, 1}, so X_S' D X_S = Z'Z for the block Z of the
n_hat inlier rows (psi' = 1) of X_S. Z'Z and ZZ' share their nonzero
eigenvalues l, so with c = n * tau

    df = sum_l l / (l + c)

from the eigenvalues of the smaller side: the p_hat x p_hat Gram Z'Z, or
the n_hat x n_hat ZZ' when n_hat < p_hat. The sum runs over the eigenvalues
above m * eps * max(l), m the order, whose count is the numerical rank of
Z. At tau = 0 df is that rank exactly, the lasso's df. D^2 = D makes
trace_V = n_hat - df exactly.

A bundle holds no design. a_hat(bundle, X) forms A_hat where a reader
needs it, by one inverse of the primal system Z'Z + cI. That system is
singular exactly when c = 0 and rank < p_hat (for instance every fit with
p_hat > n_hat at tau = 0); a_hat then raises SingularSystem. df and
trace_V are defined for every fit.

An intercept fit replaces D by Psi' = D - psi'(r) psi'(r)' / sum(psi'(r)).
With Z column-centred, X_S' Psi' X_S = Z'Z again and X_S' Psi' is Z' on the
inlier columns (zero elsewhere), so the same formulas hold.

A central finite-difference oracle over y provides independent verification,
and contraction_check verifies five summed-derivative identities over the
design entries against their closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from numpy.linalg import eigvalsh, inv

from .data import Dataset
from .errors import DegenerateFit, NonConvergence, SingularSystem
from .losses import HuberLoss
from .penalties import ElasticNet
from .solver import FitOptions, FitResult, fit


@dataclass(frozen=True)
class SensitivityBundle:
    """Closed-form sensitivity objects for one fit.

    psi_diag and psi_prime_diag are psi(r_i) and psi'(r_i) at the fitted
    residuals. tau_eff is the ridge weight tau of the system. system is
    the Gram side whose eigenvalues gave df ("primal", "dual", or "none"
    on an empty active set), system_size its order and rank the numerical
    rank of Z. A plain value: it holds no design, and a_hat(bundle, X)
    forms A_hat from the design it is given.
    """

    df: float
    trace_V: float
    n_hat: float
    p_hat: int
    psi_diag: np.ndarray
    psi_prime_diag: np.ndarray
    active_set: np.ndarray
    tau_eff: float
    p: int
    with_intercept: bool
    system: str
    system_size: int
    rank: int


def _inlier_block(X, S, d, with_intercept):
    """Z: the rows of X_S with psi' = 1, column-centred with an intercept."""
    Z = X[np.ix_(np.flatnonzero(d), S)]
    if with_intercept:
        if Z.shape[0] == 0:
            raise DegenerateFit(
                "all residuals have psi' = 0; the intercept correction is undefined"
            )
        Z -= Z.mean(axis=0)
    return Z


def sensitivity_closed_form(
    data: Dataset, loss: HuberLoss, penalty: ElasticNet, fit_result: FitResult
) -> SensitivityBundle:
    """Compute df, trace_V, n_hat, p_hat and the rank from one spectrum.

    The eigenvalues of the smaller Gram side give df and the rank (see the
    module docstring); A_hat is left to a_hat. An empty active set is not
    an error: it yields an empty A_hat, df = 0, and trace_V = sum(psi'(r)).
    """
    r = fit_result.residuals
    d = loss.psi_prime(r)
    n_hat = float(np.sum(d))
    S, icpt = fit_result.active_set, fit_result.with_intercept
    c = data.n * penalty.tau
    system, spectrum = "none", np.zeros(0)
    if S.size:
        Z = _inlier_block(data.X, S, d, icpt)
        system = "dual" if Z.shape[0] < Z.shape[1] else "primal"
        spectrum = eigvalsh(Z @ Z.T if system == "dual" else Z.T @ Z)
    m = spectrum.size
    kept = spectrum[spectrum > m * np.finfo(float).eps * spectrum.max(initial=0.0)]
    df = float(np.sum(kept / (kept + c)))
    return SensitivityBundle(
        df=df,
        trace_V=n_hat - df,  # see the module docstring
        n_hat=n_hat,
        p_hat=int(S.size),
        psi_diag=loss.psi(r),
        psi_prime_diag=d,
        active_set=S,
        tau_eff=penalty.tau,
        p=data.p,
        with_intercept=icpt,
        system=system,
        system_size=m,
        rank=kept.size,
    )


def a_hat(bundle: SensitivityBundle, X: np.ndarray) -> np.ndarray:
    """A_hat = (Z'Z + n tau I)^{-1}, the p_hat x p_hat active block of the
    sensitivity matrix of the bundle's fit on the design X.

    Symmetrized: the LU inverse is symmetric only to rounding. Raises
    SingularSystem when tau = 0 and rank < p_hat.
    """
    S, d = bundle.active_set, bundle.psi_prime_diag
    c = d.shape[0] * bundle.tau_eff  # n * tau, as in sensitivity_closed_form
    if c == 0 and bundle.rank < S.size:
        raise SingularSystem(
            f"sensitivity system singular at tau = 0: rank {bundle.rank} < p_hat = {S.size}"
        )
    Z = _inlier_block(X, S, d, bundle.with_intercept)
    G = Z.T @ Z
    G[np.diag_indices_from(G)] += c
    A = inv(G)
    return 0.5 * (A + A.T)


def a_hat_full(bundle: SensitivityBundle, A: np.ndarray) -> np.ndarray:
    """A_hat (A) embedded into the full p x p matrix (zero off the active set)."""
    full = np.zeros((bundle.p, bundle.p))
    full[np.ix_(bundle.active_set, bundle.active_set)] = A
    return full


def jacobian_y(bundle: SensitivityBundle, data: Dataset, A: np.ndarray) -> np.ndarray:
    """p x n Jacobian of beta_hat in y; rows off the active set are zero.

    X_S' Psi' (X_S' D without an intercept) is Z' on the inlier columns and
    zero elsewhere, so the active rows are A_hat Z' there (A is A_hat).
    """
    J = np.zeros((bundle.p, data.n))
    if bundle.p_hat == 0:
        return J
    d = bundle.psi_prime_diag
    Z = _inlier_block(data.X, bundle.active_set, d, bundle.with_intercept)
    J[np.ix_(bundle.active_set, np.flatnonzero(d))] = A @ Z.T
    return J


def jacobian_x_entry(
    bundle: SensitivityBundle,
    data: Dataset,
    fit_result: FitResult,
    A: np.ndarray,
    i: int,
    j: int,
) -> np.ndarray:
    """Derivative of beta_hat in the single design entry x_ij (A is A_hat).

    A_hat e_j psi(r_i) - beta_j d beta/d y_i, which is the identity
    d beta/d x_ij + beta_j * d beta/d y_i = A_hat e_j psi(r_i).
    """
    out = a_hat_full(bundle, A)[:, j] * bundle.psi_diag[i]
    return out - fit_result.beta_hat[j] * jacobian_y(bundle, data, A)[:, i]


def trace_sigma_A(bundle: SensitivityBundle, X: np.ndarray, Sigma: np.ndarray) -> float:
    """trace[Sigma A] restricted to the active block (A vanishes elsewhere),
    with A_hat formed from the design X by a_hat (which may raise)."""
    Sigma = np.asarray(Sigma, dtype=float)
    if Sigma.shape != (bundle.p, bundle.p):
        raise ValueError(
            f"covariance shape {Sigma.shape} does not match p={bundle.p}"
        )
    block = Sigma[np.ix_(bundle.active_set, bundle.active_set)]
    return float(np.sum(block * a_hat(bundle, X)))


def apply_V(
    bundle: SensitivityBundle, data: Dataset, A: np.ndarray, vec: np.ndarray
) -> np.ndarray:
    """V @ vec with V = D(I - X dbeta/dy), without forming V (A is A_hat)."""
    d = bundle.psi_prime_diag
    out = d * vec
    if bundle.p_hat:
        S = bundle.active_set
        Z = _inlier_block(data.X, S, d, bundle.with_intercept)
        out -= d * (data.X[:, S] @ (A @ (Z.T @ vec[d != 0])))
    return out


def sensitivity_fd_oracle(
    data: Dataset,
    loss: HuberLoss,
    penalty: ElasticNet,
    options: FitOptions,
    step: float,
):
    """Central finite differences of fit() over each y_i.

    Returns (J_fd, df_fd, trace_V_fd): the p x n Jacobian estimate, its
    df = trace[X J] contraction, and trace[diag{psi'(r)}(I - X J)] with
    psi' evaluated at the unperturbed fit. Per-coordinate steps scale with
    (1 + |y_i|). Refits are warm-started at the base solution, which does
    not change the minimizer (the objective is strictly convex for
    tau > 0), only the iteration count.
    """
    base = fit(data, loss, penalty, options)
    warm = replace(options, initial_point=base.beta_hat)
    n, p = data.n, data.p
    J = np.empty((p, n))
    for i in range(n):
        delta = step * (1.0 + abs(data.y[i]))
        y_plus = data.y.copy()
        y_plus[i] += delta
        y_minus = data.y.copy()
        y_minus[i] -= delta
        fit_plus = fit(Dataset(data.X, y_plus), loss, penalty, warm)
        fit_minus = fit(Dataset(data.X, y_minus), loss, penalty, warm)
        J[:, i] = (fit_plus.beta_hat - fit_minus.beta_hat) / (2.0 * delta)

    d = loss.psi_prime(base.residuals)
    xj_diag = np.einsum("ij,ji->i", data.X, J)  # (X J)_{ii}
    df_fd = float(np.sum(xj_diag))
    trace_V_fd = float(np.sum(d * (1.0 - xj_diag)))
    return J, df_fd, trace_V_fd


@dataclass(frozen=True)
class ContractionReport:
    """Residuals of the five summed-derivative identities at one FD step.

    residuals[k] is the absolute gap for identity k+1 (identities 1 and 2
    report the max gap over their free index).
    """

    step: float
    residuals: np.ndarray


def contraction_check(
    data: Dataset,
    loss: HuberLoss,
    penalty: ElasticNet,
    fit_result: FitResult,
    bundle: SensitivityBundle,
    A: np.ndarray,
    beta_star: np.ndarray,
    step: float = 1e-4,
    options: Optional[FitOptions] = None,
) -> ContractionReport:
    """Verify five identities for sums of derivatives over design entries.

    Identity-white-board, with h = beta_hat - beta_star, G = X, A the full
    sensitivity matrix (the argument A is its active block, A_hat),
    D = diag{psi'(r)}, V = D(I - GAG'D):

      1. sum_j d h_j / d g_ij        = trace[A] psi_i - (D G A h)_i
      2. sum_i d psi_i / d g_ij      = -(A G'D psi)_j - trace[V] h_j
      3. sum_ij d(h_j psi_i)/d g_ij  = |psi|^2 tr A - h'AG'D psi
                                         - psi'DGA h - |h|^2 tr V
      4. sum_ij d(h_j (Gh)_i)/d g_ij = tr A psi'Gh - h'AG'DGh + n|h|^2
                                         + psi'GA h - |h|^2 df
      5. sum_ij d(psi_i (G'psi)_j)/d g_ij = -psi'DGAG'psi - tr V psi'Gh
                                         - h'G'V psi + (p - df)|psi|^2

    The left sides are evaluated by central finite differences over every
    g_ij (the response is regenerated as y = G beta_star + eps with eps held
    fixed, so the derivative includes the y-channel); the right sides come
    from the closed forms at the base fit. Perturbed fits are warm-started
    at the base solution. Cost: 2 n p fits.
    """
    if options is None:
        options = FitOptions(kkt_tolerance=1e-11)
    n, p = data.n, data.p
    beta_star = np.asarray(beta_star, dtype=float)
    h = fit_result.beta_hat - beta_star
    G = data.X
    ps = bundle.psi_diag
    d = bundle.psi_prime_diag
    trA = float(np.trace(A))
    trV = bundle.trace_V
    df = bundle.df
    Vps = apply_V(bundle, data, A, ps)
    A = a_hat_full(bundle, A)  # the full p x p matrix of the identities

    Ah = A @ h
    Gh = G @ h
    AGtDps = A @ (G.T @ (d * ps))
    Gtps = G.T @ ps

    rhs1 = trA * ps - d * (G @ Ah)
    rhs2 = -AGtDps - trV * h
    rhs3 = (
        float(ps @ ps) * trA
        - float(h @ AGtDps)
        - float((d * ps) @ (G @ Ah))
        - float(h @ h) * trV
    )
    rhs4 = (
        trA * float(ps @ Gh)
        - float(Ah @ (G.T @ (d * Gh)))
        + n * float(h @ h)
        + float(ps @ (G @ Ah))
        - float(h @ h) * df
    )
    rhs5 = (
        -float((d * ps) @ (G @ (A @ Gtps)))
        - trV * float(ps @ Gh)
        - float(Gh @ Vps)
        + (p - df) * float(ps @ ps)
    )

    # Finite-difference left sides, all assembled from the same 2np fits.
    eps_vec = data.y - G @ beta_star
    warm = replace(options, initial_point=fit_result.beta_hat)
    lhs1 = np.zeros(n)
    lhs2 = np.zeros(p)
    lhs3 = 0.0
    lhs4 = 0.0
    lhs5 = 0.0
    for i in range(n):
        for j in range(p):
            sides = []
            for sgn in (1.0, -1.0):
                Gp = G.copy()
                Gp[i, j] += sgn * step
                yp = Gp @ beta_star + eps_vec
                res = fit(Dataset(Gp, yp), loss, penalty, warm)
                hp = res.beta_hat - beta_star
                psp = loss.psi(res.residuals)
                sides.append((hp, psp, Gp))
            (hp, psp, Gp), (hm, psm, Gm) = sides
            inv = 1.0 / (2.0 * step)
            lhs1[i] += (hp[j] - hm[j]) * inv
            lhs2[j] += (psp[i] - psm[i]) * inv
            lhs3 += (hp[j] * psp[i] - hm[j] * psm[i]) * inv
            lhs4 += (hp[j] * (Gp[i] @ hp) - hm[j] * (Gm[i] @ hm)) * inv
            lhs5 += (psp[i] * (Gp[:, j] @ psp) - psm[i] * (Gm[:, j] @ psm)) * inv

    residuals = np.array(
        [
            float(np.max(np.abs(lhs1 - rhs1))),
            float(np.max(np.abs(lhs2 - rhs2))),
            abs(lhs3 - rhs3),
            abs(lhs4 - rhs4),
            abs(lhs5 - rhs5),
        ]
    )
    return ContractionReport(step=step, residuals=residuals)


# ---------------------------------------------------------------------------
# Self-contained derivative verification on synthetic fixtures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DerivativeCheckReport:
    """Outcome of one full derivative-verification run.

    failures is the tuple of check names whose residual exceeded its
    tolerance; empty means everything passed.
    """

    n: int
    p: int
    seed: int
    jacobian_rel_error: float
    df_abs_error: float
    trace_v_abs_error: float
    contraction_reports: tuple
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def _fd_safe_fixture(
    n: int,
    p: int,
    loss: HuberLoss,
    penalty: ElasticNet,
    seed: int,
    options: FitOptions,
    attempts: int = 50,
):
    """Draw (data, beta_star, fit) whose solution is FD-stable.

    Finite differencing across a Huber kink or an active-set boundary
    measures a different one-sided object than the closed forms, so
    fixtures are redrawn (seed + attempt) until the fit keeps clear
    margins: every |residual| at least 1e-2 away from the kink, every
    active coefficient above 1e-4 in magnitude, and every inactive
    score at least 1e-5 below the l1 threshold.
    """
    for attempt in range(attempts):
        rng = np.random.default_rng(seed + attempt)
        X = rng.standard_normal((n, p))
        beta_star = rng.standard_normal(p) / np.sqrt(p)
        y = X @ beta_star + rng.standard_normal(n)
        data = Dataset(X, y)
        try:
            result = fit(data, loss, penalty, options)
        except NonConvergence:
            continue

        # At the square loss's scale inf the clearance is inf.
        clearance = float(np.min(np.abs(np.abs(result.residuals) - loss.scale)))
        if clearance <= 1e-2:
            continue
        active = result.active_set
        if active.size and float(np.min(np.abs(result.beta_hat[active]))) <= 1e-4:
            continue
        if penalty.lam > 0:
            score = data.X.T @ loss.psi(result.residuals) / n
            inactive = np.setdiff1d(np.arange(p), active, assume_unique=True)
            if inactive.size:
                slack = penalty.lam - float(np.max(np.abs(score[inactive])))
                if slack <= 1e-5:
                    continue
        return data, beta_star, result
    raise RuntimeError(
        f"no FD-stable fixture found in {attempts} attempts from seed {seed}"
    )


# Pass thresholds of run_derivative_checks: relative error of the response
# Jacobian, absolute error of df and trace V, and each contraction residual.
CHECK_TOLERANCES = {
    "jacobian_rel": 1e-3,
    "trace_abs": 1e-3,
    "contraction_abs": 1e-3,
}
# Finite-difference step of the response-Jacobian oracle.
FD_STEP = 1e-6


def run_derivative_checks(
    n: int,
    p: int,
    loss: HuberLoss,
    penalty: ElasticNet,
    seed: int,
    contraction_steps=(1e-3, 1e-4),
    fault: Optional[str] = None,
) -> DerivativeCheckReport:
    """Compare every closed-form derivative against finite differences.

    Generates a synthetic fixture, fits it tightly, then checks the
    response Jacobian, df, trace V, and the five design-derivative
    identities. A_hat is formed once, and every closed form reads it.
    fault='corrupt-a-hat' multiplies it by 1.37 before checking — a
    negative control that must fail.
    """
    options = FitOptions(kkt_tolerance=1e-11)
    data, beta_star, result = _fd_safe_fixture(n, p, loss, penalty, seed, options)
    bundle = sensitivity_closed_form(data, loss, penalty, result)
    A = a_hat(bundle, data.X)

    if fault == "corrupt-a-hat":
        A = 1.37 * A
    elif fault is not None:
        raise ValueError(f"unknown fault: {fault!r}")

    J_closed = jacobian_y(bundle, data, A)
    J_fd, df_fd, trace_v_fd = sensitivity_fd_oracle(
        data, loss, penalty, options, step=FD_STEP
    )
    scale = max(float(np.linalg.norm(J_fd)), 1e-30)
    jacobian_rel_error = float(np.linalg.norm(J_closed - J_fd)) / scale
    df_abs_error = abs(bundle.df - df_fd)
    trace_v_abs_error = abs(bundle.trace_V - trace_v_fd)

    contraction_reports = tuple(
        contraction_check(
            data, loss, penalty, result, bundle, A, beta_star, step=s, options=options
        )
        for s in contraction_steps
    )

    failures = []
    if not jacobian_rel_error <= CHECK_TOLERANCES["jacobian_rel"]:
        failures.append("jacobian_y")
    if not df_abs_error <= CHECK_TOLERANCES["trace_abs"]:
        failures.append("df")
    if not trace_v_abs_error <= CHECK_TOLERANCES["trace_abs"]:
        failures.append("trace_V")
    for report in contraction_reports:
        for k in range(5):
            if not report.residuals[k] <= CHECK_TOLERANCES["contraction_abs"]:
                failures.append(f"contraction-{k + 1}@step={report.step:g}")

    return DerivativeCheckReport(
        n=n,
        p=p,
        seed=seed,
        jacobian_rel_error=jacobian_rel_error,
        df_abs_error=df_abs_error,
        trace_v_abs_error=trace_v_abs_error,
        contraction_reports=contraction_reports,
        failures=tuple(failures),
    )
