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
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .data import Dataset
from .errors import NoFeasibleCandidate, NonConvergence
from .losses import HuberLoss
from .penalties import ElasticNet
from .pool import map_items
from .sensitivity import SensitivityBundle, sensitivity_closed_form
from .solver import FitOptions, FitResult, fit

DEFAULT_ETA = 0.05

# trace_V at or below this multiple of n makes the df/trace_V ratio
# meaningless; the report is then flagged instead of carrying a number.
ZERO_TRACE_V_REL = 1e-12


@dataclass(frozen=True)
class CriterionReport:
    crit_adaptive: float
    ratio: float
    constraint_value: float
    constraint_ok: bool
    eta: float
    crit_defined: bool

    @property
    def feasible(self) -> bool:
        """The constraint holds and the criterion is defined."""
        return self.constraint_ok and self.crit_defined

    @property
    def reason(self) -> Optional[str]:
        """Why the candidate is infeasible; None when it is feasible."""
        if self.feasible:
            return None
        if not self.crit_defined:
            return "criterion undefined: trace of V is numerically zero"
        return f"constraint value {self.constraint_value} below eta {self.eta}"


def crit_adaptive(
    fit_result: FitResult,
    bundle: SensitivityBundle,
    loss: HuberLoss,
    eta: float = DEFAULT_ETA,
) -> CriterionReport:
    """||r + (df/trace V) psi(r)||^2, which is crit_oracle_sigma at the
    plug-in t_hat = df/trace V, plus the feasibility fields.

    When trace V is numerically zero (<= 1e-12 * n) the ratio is undefined:
    the report comes back flagged (crit_defined False, NaN values,
    constraint_ok False) rather than carrying a garbage number.
    """
    r = fit_result.residuals
    n = r.shape[0]
    constraint_value = bundle.n_hat / n
    if bundle.trace_V <= ZERO_TRACE_V_REL * n:
        return CriterionReport(
            crit_adaptive=math.nan,
            ratio=math.nan,
            constraint_value=constraint_value,
            constraint_ok=False,
            eta=eta,
            crit_defined=False,
        )
    ratio = bundle.df / bundle.trace_V
    return CriterionReport(
        crit_adaptive=crit_oracle_sigma(fit_result, loss, ratio),
        ratio=float(ratio),
        constraint_value=float(constraint_value),
        constraint_ok=bool(constraint_value >= eta),
        eta=eta,
        crit_defined=True,
    )


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
    iterate (converged False, the solver's message in warning). summary()
    holds every number a command reports about it.
    """

    loss: HuberLoss
    penalty: ElasticNet
    result: FitResult
    bundle: SensitivityBundle
    report: CriterionReport
    warning: Optional[str] = None

    @property
    def feasible(self) -> bool:
        return self.report.feasible

    @property
    def reason(self) -> Optional[str]:
        return self.report.reason

    def summary(self) -> dict:
        """The fit's convergence and counters, the sensitivity quantities
        (trace_v is trace V), the criterion report's fields and the
        feasibility, by name in one flat dict."""
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
            **asdict(self.report),
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
    report = crit_adaptive(result, bundle, loss, eta=eta)
    return Candidate(loss, penalty, result, bundle, report, warning)


def _cell_candidate(data: Dataset, options: FitOptions, eta: float, cell) -> Candidate:
    """evaluate() one grid cell, the item evaluate_grid maps."""
    return evaluate(data, cell.loss(), cell.penalty(), options, eta)


def evaluate_grid(
    data: Dataset,
    cells: Sequence,
    options: Optional[FitOptions] = None,
    eta: float = DEFAULT_ETA,
    jobs: int = 1,
) -> list:
    """evaluate() every cell (anything with loss() and penalty()) on one design.

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
    order = sorted(
        range(len(cells)), key=lambda i: (cells[i].penalty().lam, cells[i].penalty().tau)
    )
    shared = (data, options, eta)
    found = map_items(_cell_candidate, shared, [cells[i] for i in order], jobs)
    by_index = dict(zip(order, found))
    return [by_index[i] for i in range(len(cells))]


@dataclass(frozen=True)
class SelectionReport:
    selected_index: int
    ranking: tuple  # feasible indices sorted by criterion, then by index


def select(candidates: Sequence) -> SelectionReport:
    """Pick the feasible candidate minimizing the adaptive criterion.

    ``candidates`` holds Candidate objects from evaluate() or evaluate_grid(),
    each already scored at its own eta. Infeasible candidates are left out
    of the ranking but stay in the caller's list. Ties break to the smallest
    index. Raises NoFeasibleCandidate when nothing is feasible.
    """
    if len(candidates) == 0:
        raise ValueError("candidate list is empty")
    feasible = [i for i, cand in enumerate(candidates) if cand.feasible]
    if not feasible:
        raise NoFeasibleCandidate("no candidate meets the feasibility constraint")
    ranking = sorted(feasible, key=lambda i: (candidates[i].report.crit_adaptive, i))
    return SelectionReport(selected_index=ranking[0], ranking=tuple(ranking))
