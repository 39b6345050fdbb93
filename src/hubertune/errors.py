"""Exception types shared across the toolkit.

The CLI maps these onto its exit-code contract: input problems exit 1,
numerical failures exit 2. Infeasible selection (exit 3) is no exception:
select returns an empty ranking.
"""

from __future__ import annotations


class HubertuneError(Exception):
    """Base class for all toolkit errors."""


class InputError(HubertuneError):
    """Malformed user input (files, config documents, flag combinations)."""


class IllPosed(HubertuneError):
    """Problem has no unique solution (no penalty and p > n)."""


class NonConvergence(HubertuneError):
    """Iteration cap hit with the KKT residual still above tolerance.

    Carries the best iterate so callers can inspect or record it; the
    attached result is flagged ``converged=False``.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class SingularSystem(HubertuneError):
    """A_hat was read where its system is singular (tau = 0, rank < p_hat)."""


class DegenerateFit(HubertuneError):
    """All residuals left the quadratic regime (sum of psi' is zero)."""


class DegenerateDenominator(HubertuneError):
    """A standardization denominator is exactly zero (estimate == target, or df = n)."""
