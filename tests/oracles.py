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
