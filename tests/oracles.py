"""Test-only reference implementations kept out of the package API."""

from dataclasses import replace

import numpy as np

from hubertune import DegenerateFit, FitOptions, fit


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
