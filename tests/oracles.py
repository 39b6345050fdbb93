"""Test-only reference implementations kept out of the package API."""

from dataclasses import replace

import numpy as np

from hubertune import DegenerateFit, FitOptions, HuberLoss, fit


def fit_with_intercept(data, loss, penalty, options=None):
    """fit() with the unpenalized-intercept variant forced on."""
    if options is None:
        options = FitOptions(intercept=True)
    elif not options.intercept:
        options = replace(options, intercept=True)
    return fit(data, loss, penalty, options)


def intercept_psi_matrix(fit_result, loss):
    """The n x n matrix D - psi'(r) psi'(r)'/sum(psi'(r)) of intercept fits.

    Symmetric PSD with zero row sums. Raises DegenerateFit when every
    residual has psi' = 0 (no quadratic-regime observation left).
    """
    d = loss.psi_prime(fit_result.residuals)
    s = float(np.sum(d))
    if s <= 0.0:
        raise DegenerateFit(
            "all residuals have psi' = 0; the intercept correction is undefined"
        )
    return np.diag(d) - np.outer(d, d) / s


def dense_system(data, fit_result, loss, tau_eff):
    """(M, X_S, Psi') of the full-n, psi'-weighted sensitivity system.

    M = X_S' Psi' X_S + n*tau_eff*I with Psi' = diag{psi'(r)}, or the
    intercept's intercept_psi_matrix.
    """
    if fit_result.with_intercept:
        psi = intercept_psi_matrix(fit_result, loss)
    else:
        psi = np.diag(loss.psi_prime(fit_result.residuals))
    XS = data.X[:, fit_result.active_set]
    return XS.T @ psi @ XS + data.n * tau_eff * np.eye(XS.shape[1]), XS, psi


def dense_df(data, fit_result, loss, tau_eff):
    """df = trace[X_S M^{-1} X_S' Psi'], solved densely with np.linalg.solve."""
    M, XS, psi = dense_system(data, fit_result, loss, tau_eff)
    return float(np.trace(XS @ np.linalg.solve(M, XS.T @ psi)))


# The solver's per-iteration pieces as they were first written, one numpy
# expression each; the lean versions must reproduce them bit for bit.


def mean_loss(loss, r):
    """Mean loss of the residuals r."""
    return float(np.mean(loss.value(r)))


def huber_psi(r, scale):
    """The Huber score, clipped by np.clip."""
    return np.clip(r, -scale, scale)


def elastic_net_value(penalty, b):
    """lam * ||b||_1 + (tau/2) * ||b||_2^2 with np.sum."""
    return float(penalty.lam * np.sum(np.abs(b)) + 0.5 * penalty.tau * np.sum(b * b))


def elastic_net_prox(penalty, v, step):
    """Soft-threshold at step*lam, then shrink by 1/(1 + step*tau)."""
    v = np.asarray(v, dtype=float)
    shrunk = np.sign(v) * np.maximum(np.abs(v) - step * penalty.lam, 0.0)
    return shrunk / (1.0 + step * penalty.tau)


def kkt_score_gap(g, w, penalty, off=0):
    """KKT gap by np.where; the first `off` coordinates are unpenalized."""
    beta = w[off:]
    gap = np.where(
        beta != 0.0,
        np.abs(g[off:] - penalty.lam * np.sign(beta) - penalty.tau * beta),
        np.maximum(np.abs(g[off:]) - penalty.lam, 0.0),
    )
    worst = float(gap.max(initial=0.0))
    if off:
        worst = max(worst, abs(float(g[0])))
    return worst


# The solver reports its KKT residual and objective on FitResult; these
# recompute both from (data, beta) with the formulas above alone.


def score(loss, r):
    """psi(r): huber_psi for a Huber loss, r itself for the square loss."""
    return huber_psi(r, loss.scale) if isinstance(loss, HuberLoss) else r


def kkt_residual(data, loss, penalty, beta, intercept=None):
    """kkt_score_gap of the score (1/n) X'psi(r) at beta.

    A numeric ``intercept`` joins as the unpenalized first coordinate, with
    score (1/n) 1'psi(r); ``None`` means the model has none.
    """
    beta = np.asarray(beta, dtype=float)
    b0 = 0.0 if intercept is None else float(intercept)
    ps = score(loss, data.y - b0 - data.X @ beta)
    g = data.X.T @ ps / data.n
    if intercept is None:
        return kkt_score_gap(g, beta, penalty)
    return kkt_score_gap(np.r_[np.sum(ps) / data.n, g], np.r_[b0, beta], penalty, off=1)


def objective(data, loss, penalty, beta, intercept=0.0):
    """F(b): the mean loss of the residuals plus the penalty at beta."""
    beta = np.asarray(beta, dtype=float)
    r = data.y - intercept - data.X @ beta
    return mean_loss(loss, r) + elastic_net_value(penalty, beta)
