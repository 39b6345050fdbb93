"""Risk proxies, the per-candidate pipeline, and tuning-parameter selection.

The adaptive criterion ||r + (df/trace V) psi(r)||^2 needs neither the
design covariance nor the noise distribution; with the covariance known,
||r + trace[Sigma A] psi(r)||^2 is the oracle counterpart. Selection picks
the feasible candidate (average psi' of the residuals at least eta) with
the smallest adaptive criterion. evaluate() runs one candidate through
fit -> sensitivity -> criterion and records non-convergence instead of
raising it; evaluate_grid() does so for every cell of a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .data import Dataset
from .errors import NonConvergence
from .losses import HuberLoss
from .penalties import ElasticNet
from .pool import map_items
from .sensitivity import SensitivityBundle, sensitivity_closed_form
from .solver import FitOptions, FitResult, fit

DEFAULT_ETA = 0.05

# trace_V at or below this multiple of n makes the df/trace_V ratio
# meaningless; the criterion is then NaN and the candidate infeasible.
ZERO_TRACE_V_REL = 1e-12


def _t_hat(bundle: SensitivityBundle, n: int) -> float:
    """The plug-in t_hat = df/trace V; NaN where trace V is numerically zero
    (<= 1e-12 * n) and the ratio is undefined."""
    if bundle.trace_V <= ZERO_TRACE_V_REL * n:
        return math.nan
    return float(bundle.df / bundle.trace_V)


def crit_adaptive(
    fit_result: FitResult, bundle: SensitivityBundle, loss: HuberLoss
) -> float:
    """||r + (df/trace V) psi(r)||^2, which is crit_oracle_sigma at the
    plug-in t_hat = df/trace V; NaN where that ratio is undefined, never a
    garbage number. A Candidate calls it once, when it is built.
    """
    t_hat = _t_hat(bundle, fit_result.residuals.shape[0])
    return math.nan if math.isnan(t_hat) else crit_oracle_sigma(fit_result, loss, t_hat)


def crit_oracle_sigma(fit_result: FitResult, loss: HuberLoss, t_hat: float) -> float:
    """||r + t_hat psi(r)||^2 (unnormalized; divide by n as needed).

    ``t_hat`` is trace[Sigma A] (trace_sigma_A) for the known covariance.
    """
    r = fit_result.residuals
    combined = r + t_hat * loss.psi(r)
    return float(combined @ combined)


def out_of_sample_error(beta_hat, beta_star, Sigma) -> float:
    """(beta_hat - beta_star)' Sigma (beta_hat - beta_star)."""
    diff = np.asarray(beta_hat, dtype=float) - np.asarray(beta_star, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    if Sigma.shape != (diff.shape[0], diff.shape[0]):
        raise ValueError(
            f"covariance shape {Sigma.shape} does not match p={diff.shape[0]}"
        )
    return float(diff @ (Sigma @ diff))


@dataclass(frozen=True)
class Candidate:
    """One tuning candidate after fit -> sensitivity -> criterion.

    result is the converged fit or, when the iteration cap was hit, the best
    iterate (converged False, the solver's message in warning), and eta the
    feasibility threshold it is scored at. A candidate scores itself when it
    is built: crit_adaptive is its criterion, NaN where undefined. reason is
    the one feasibility decision, the first rule the candidate fails (the
    criterion is defined, then n_hat/n is at least eta), and feasible is
    reason is None. summary() holds every number a command reports about it.
    """

    loss: HuberLoss
    penalty: ElasticNet
    result: FitResult
    bundle: SensitivityBundle
    eta: float
    warning: Optional[str] = None
    crit_adaptive: float = field(init=False)

    def __post_init__(self):
        criterion = crit_adaptive(self.result, self.bundle, self.loss)
        object.__setattr__(self, "crit_adaptive", criterion)

    @property
    def ratio(self) -> float:
        """The plug-in t_hat = df/trace V; NaN where it is undefined."""
        return _t_hat(self.bundle, self.result.residuals.shape[0])

    @property
    def crit_defined(self) -> bool:
        return not math.isnan(self.ratio)

    @property
    def constraint_value(self) -> float:
        return float(self.bundle.n_hat / self.result.residuals.shape[0])

    @property
    def constraint_ok(self) -> bool:
        """n_hat/n >= eta; False where the criterion is undefined."""
        return self.crit_defined and bool(self.constraint_value >= self.eta)

    @property
    def reason(self) -> Optional[str]:
        """The first feasibility rule the candidate fails; None when it
        meets them all."""
        if not self.crit_defined:
            return "criterion undefined: trace of V is numerically zero"
        if not self.constraint_ok:
            return f"constraint value {self.constraint_value} below eta {self.eta}"
        return None

    @property
    def feasible(self) -> bool:
        return self.reason is None

    def summary(self) -> dict:
        """The fit's convergence and counters, the sensitivity quantities
        (trace_v is trace V), the criterion and the feasibility, by name in
        one flat dict."""
        result, bundle = self.result, self.bundle
        return {
            "converged": result.converged,
            "iterations": result.iterations,
            "newton_attempts": result.newton_attempts,
            "df": bundle.df,
            "trace_v": bundle.trace_V,
            "n_hat": bundle.n_hat,
            "p_hat": bundle.p_hat,
            "tau_eff": bundle.tau_eff,
            "crit_adaptive": self.crit_adaptive,
            "ratio": self.ratio,
            "constraint_value": self.constraint_value,
            "constraint_ok": self.constraint_ok,
            "eta": self.eta,
            "crit_defined": self.crit_defined,
            "feasible": self.feasible,
            "reason": self.reason,
        }


def evaluate(
    data: Dataset,
    loss: HuberLoss,
    penalty: ElasticNet,
    options: Optional[FitOptions] = None,
    eta: float = DEFAULT_ETA,
) -> Candidate:
    """Fit one candidate, differentiate it, and score it.

    Never raises on non-convergence: it is recorded on the returned
    Candidate. Input errors (IllPosed) and a degenerate intercept fit
    (DegenerateFit) still raise.
    """
    warning = None
    try:
        result = fit(data, loss, penalty, options)
    except NonConvergence as exc:
        result, warning = exc.result, str(exc)
    bundle = sensitivity_closed_form(data, loss, penalty, result)
    return Candidate(loss, penalty, result, bundle, eta, warning)


def _cell_candidate(data: Dataset, options: FitOptions, eta: float, cell) -> Candidate:
    """evaluate() one (loss, penalty) grid cell, the item evaluate_grid maps."""
    return evaluate(data, *cell, options, eta)


def evaluate_grid(
    data: Dataset,
    cells: Sequence,
    options: Optional[FitOptions] = None,
    eta: float = DEFAULT_ETA,
    jobs: int = 1,
) -> list:
    """evaluate() every (loss, penalty) cell on one design.

    Each fit runs exactly as it would alone. The design's step bound is
    computed here, once, and kept on the Dataset for every fit. With jobs >
    1 the cells run on up to that many processes, this one included
    (hubertune.pool): forked workers inherit the Dataset, with its step
    bound, the options and eta, and a candidate holds no copy of the
    design, so it comes back as small as its fit. Cells are independent
    and every process runs this one's BLAS thread count, so the candidates
    are the same for every jobs count. The cells run the likely costliest
    first (smaller lambda, then smaller tau, then grid order), so a slow
    cell does not run alone at the end; the candidates come back in grid
    order. The order is the same for every jobs count, so a grid with
    failing cells raises the same exception, the first in that order.
    """
    if options is None:
        options = FitOptions()
    # Read once here, the step bound is cached on the Dataset the workers get.
    _ = data.sigma_max_with_intercept if options.intercept else data.sigma_max
    cells = list(cells)
    # Smaller penalties leave larger active sets and take more iterations;
    # the sort is stable, so ties keep grid order.
    order = sorted(range(len(cells)), key=lambda i: (cells[i][1].lam, cells[i][1].tau))
    shared = (data, options, eta)
    found = map_items(_cell_candidate, shared, [cells[i] for i in order], jobs)
    by_index = dict(zip(order, found))
    return [by_index[i] for i in range(len(cells))]


def select(candidates: Sequence) -> tuple:
    """Rank the feasible candidates by adaptive criterion; the first wins.

    ``candidates`` holds Candidate objects from evaluate() or evaluate_grid(),
    each already scored at its own eta. Returns the feasible indices sorted
    by criterion, then by index, so ties break to the smallest index.
    Infeasible candidates are left out of the ranking but stay in the
    caller's list. The ranking is () when nothing is feasible, an empty
    list included.
    """
    feasible = [i for i, cand in enumerate(candidates) if cand.feasible]
    return tuple(sorted(feasible, key=lambda i: (candidates[i].crit_adaptive, i)))
