"""Risk proxies, the per-candidate pipeline, and tuning-parameter selection.

The adaptive criterion ||r + (df/trace V) psi(r)||^2 needs neither the
design covariance nor the noise distribution; with the covariance known,
||r + trace[Sigma A] psi(r)||^2 is the oracle counterpart. Selection picks
the feasible candidate (average psi' of the residuals at least eta) with
the smallest adaptive criterion. evaluate() runs one candidate through
fit -> sensitivity -> criterion and records numerical failures instead of
raising them; evaluate_grid() does so for every cell of a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .data import Dataset
from .errors import NoFeasibleCandidate, NonConvergence, SingularSystem
from .losses import Loss
from .penalties import ElasticNet
from .pool import map_items
from .sensitivity import SensitivityBundle, bind_design, sensitivity_closed_form
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
    loss: Loss,
    eta: float = DEFAULT_ETA,
) -> CriterionReport:
    """||r + (df/trace V) psi(r)||^2 plus the feasibility fields.

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
    combined = r + ratio * loss.psi(r)
    value = float(combined @ combined)
    return CriterionReport(
        crit_adaptive=value,
        ratio=float(ratio),
        constraint_value=float(constraint_value),
        constraint_ok=bool(constraint_value >= eta),
        eta=eta,
        crit_defined=True,
    )


def crit_oracle_sigma(fit_result: FitResult, loss: Loss, t_hat: float) -> float:
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
    iterate (converged False, the solver's message in warning). bundle and
    report are None when the sensitivity system was singular, whose message
    is then in singular.
    """

    loss: Loss
    penalty: ElasticNet
    result: FitResult
    bundle: Optional[SensitivityBundle] = None
    report: Optional[CriterionReport] = None
    warning: Optional[str] = None
    singular: Optional[str] = None

    @property
    def feasible(self) -> bool:
        return self.report is not None and self.report.feasible

    @property
    def reason(self) -> Optional[str]:
        if self.report is None:
            return f"sensitivity system singular: {self.singular}"
        return self.report.reason


def evaluate(
    data: Dataset,
    loss: Loss,
    penalty: ElasticNet,
    options: Optional[FitOptions] = None,
    eta: float = DEFAULT_ETA,
) -> Candidate:
    """Fit one candidate, differentiate it, and score it.

    Never raises on non-convergence or a singular sensitivity system: both
    are recorded on the returned Candidate. Input errors (IllPosed) and a
    degenerate intercept fit (DegenerateFit) still raise.
    """
    warning = None
    try:
        result = fit(data, loss, penalty, options)
    except NonConvergence as exc:
        result, warning = exc.result, str(exc)
    try:
        bundle = sensitivity_closed_form(data, loss, penalty, result)
    except SingularSystem as exc:
        return Candidate(loss, penalty, result, warning=warning, singular=str(exc))
    report = crit_adaptive(result, bundle, loss, eta=eta)
    return Candidate(loss, penalty, result, bundle, report, warning)


def _cell_candidate(data: Dataset, options: FitOptions, eta: float, cell) -> Candidate:
    """evaluate() one grid cell, as a pool worker runs it.

    The returned bundle holds no copy of the design; evaluate_grid binds
    it again.
    """
    cand = evaluate(data, cell.loss(), cell.penalty(), options, eta)
    return _bind_design(cand, None)


def _bind_design(cand: Candidate, X) -> Candidate:
    if cand.bundle is None:
        return cand
    return replace(cand, bundle=bind_design(cand.bundle, X))


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
    1 the cells run on up to that many worker processes (hubertune.pool):
    the Dataset, with its step bound, the options and eta reach each worker
    once, and each candidate comes back without a copy of the design.
    Cells are independent and each worker runs its parent's BLAS thread
    count, so the candidates are the same for every jobs count. The cells
    run the likely costliest first (smaller lambda, then smaller tau, then
    grid order), so a slow cell does not run alone at the end; the
    candidates come back in grid order. The order is the same for every
    jobs count, so a grid with failing cells raises the same exception,
    the first in that order.
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
    candidates = [None] * len(cells)
    for i, cand in zip(order, found):
        candidates[i] = _bind_design(cand, data.X)
    return candidates


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
