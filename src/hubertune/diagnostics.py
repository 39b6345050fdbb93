"""Residual-distribution diagnostics.

In a simulation (where the signal beta*, the noise vector, and the design
covariance are known) the standardized combination

    zeta_i = (r_i + trace[Sigma A] psi(r_i) - eps_i) / ||Sigma^{1/2}(beta_hat - beta*)||

is approximately standard normal; this module computes it together with
moment summaries and a Kolmogorov-Smirnov distance, verifies the exact
proximal representation of the residuals, and emits QQ/histogram tables as
CSV for external plotting. Normality is assessed by moments + KS distance
rather than test p-values: at desk-scale n the approximation error term is
too large for calibrated hypothesis tests, so thresholds live in the test
suite as tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .criterion import out_of_sample_error
from .errors import DegenerateDenominator
from .formatting import write_csv
from .losses import HuberLoss
from .sensitivity import SensitivityBundle, trace_sigma_A
from .solver import FitResult


def ks_normal(values) -> float:
    """Kolmogorov-Smirnov sup-distance of the sample to the N(0,1) CDF."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty sample")
    cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x.tolist()])
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


@dataclass(frozen=True)
class NormalSummary:
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float
    ks_statistic: float


def normal_summary(values) -> NormalSummary:
    """Population moments and KS distance to N(0,1) of a sample."""
    x = np.asarray(values, dtype=float)
    m = float(np.mean(x))
    c = x - m
    m2 = float(np.mean(c * c))
    if m2 > 0:
        m3 = float(np.mean(c**3))
        m4 = float(np.mean(c**4))
        skew = m3 / m2**1.5
        exkurt = m4 / m2**2 - 3.0
    else:
        skew = 0.0
        exkurt = 0.0
    return NormalSummary(
        mean=m,
        variance=m2,
        skewness=skew,
        excess_kurtosis=exkurt,
        ks_statistic=ks_normal(x),
    )


@dataclass(frozen=True)
class ZetaReport:
    zetas: np.ndarray
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float
    ks_statistic: float


def zeta_statistics(
    fit_result: FitResult,
    bundle: SensitivityBundle,
    X: np.ndarray,
    Sigma: np.ndarray,
    beta_star: np.ndarray,
    eps: np.ndarray,
    loss: HuberLoss,
) -> ZetaReport:
    """Per-observation zeta statistics and their normal-approximation summary.

    Simulation-only: requires the true signal and the realized noise. X is
    the fitted design, from which trace_sigma_A forms A_hat. Raises
    DegenerateDenominator when beta_hat equals beta* exactly.
    """
    eps = np.asarray(eps, dtype=float)
    denom_sq = out_of_sample_error(fit_result.beta_hat, beta_star, Sigma)
    if denom_sq <= 0.0:
        raise DegenerateDenominator(
            "||Sigma^(1/2)(beta_hat - beta*)|| is zero; zeta is undefined"
        )
    denom = np.sqrt(denom_sq)
    t_hat = trace_sigma_A(bundle, X, Sigma)
    r = fit_result.residuals
    zetas = (r + t_hat * loss.psi(r) - eps) / denom
    summ = normal_summary(zetas)
    return ZetaReport(
        zetas=zetas,
        mean=summ.mean,
        variance=summ.variance,
        skewness=summ.skewness,
        excess_kurtosis=summ.excess_kurtosis,
        ks_statistic=summ.ks_statistic,
    )


@dataclass(frozen=True)
class ProxRepresentationReport:
    """Per-observation gaps of the exact prox identity, plus the effective
    observations u_i = r_i + t_hat * psi(r_i) they reconstruct."""

    gaps: np.ndarray
    effective_obs: np.ndarray
    t_hat: float


def residual_representation_check(
    fit_result: FitResult, loss: HuberLoss, t_hat: float
) -> ProxRepresentationReport:
    """gap_i = |r_i - prox[t rho](r_i + t psi(r_i))| — exactly zero in exact
    arithmetic for any t > 0, so the gaps certify numerical assembly.

    ``t_hat`` is the debiasing factor: trace[Sigma A] (trace_sigma_A) when
    the covariance is known, or the adaptive plug-in df/trace V. Raises
    ValueError unless it is finite and >= 0.
    """
    t = float(t_hat)
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t_hat must be a finite number >= 0, got {t}")
    r = fit_result.residuals
    if t == 0.0:
        # prox with step 0 is the identity; the gap is exactly zero.
        return ProxRepresentationReport(
            gaps=np.zeros_like(r), effective_obs=r.copy(), t_hat=t
        )
    u = r + t * loss.psi(r)
    gaps = np.abs(r - loss.prox(u, t))
    return ProxRepresentationReport(gaps=gaps, effective_obs=u, t_hat=t)


@dataclass(frozen=True)
class SquareLossNormalityStat:
    """Standardized square-loss residual statistics: the covariance-aware
    variant scales by (1 + trace[Sigma A]), the adaptive one by
    (1 - df/n)^{-1}."""

    oracle: np.ndarray
    adaptive: np.ndarray


def square_loss_normality_stat(
    fit_result: FitResult,
    bundle: SensitivityBundle,
    X: np.ndarray,
    Sigma: np.ndarray,
    beta_star: np.ndarray,
    sigma_noise: float,
) -> SquareLossNormalityStat:
    """(sigma^2 + ||Sigma^{1/2}(beta_hat-beta*)||^2)^{-1/2} * scale * r_i,
    X the fitted design."""
    h_sq = out_of_sample_error(fit_result.beta_hat, beta_star, Sigma)
    denom = np.sqrt(sigma_noise * sigma_noise + h_sq)
    if denom <= 0.0:
        raise DegenerateDenominator(
            "zero noise scale and beta_hat equals beta*; nothing to standardize"
        )
    r = fit_result.residuals
    n = r.shape[0]
    oracle_scale = 1.0 + trace_sigma_A(bundle, X, Sigma)
    adaptive_scale = 1.0 / (1.0 - bundle.df / n)
    return SquareLossNormalityStat(
        oracle=oracle_scale * r / denom,
        adaptive=adaptive_scale * r / denom,
    )


def qq_table(values) -> np.ndarray:
    """Two columns (theoretical, empirical): normal quantiles at plotting
    positions (i - 1/2)/n against the sorted sample."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.shape[0]
    inv_cdf = NormalDist().inv_cdf
    theo = np.array([inv_cdf((i - 0.5) / n) for i in range(1, n + 1)])
    return np.column_stack([theo, x])


def histogram_table(values, bins: int = 30) -> np.ndarray:
    """Three columns (bin_left, bin_right, count)."""
    counts, edges = np.histogram(np.asarray(values, dtype=float), bins=bins)
    return np.column_stack([edges[:-1], edges[1:], counts.astype(float)])


def write_qq_csv(values, path) -> None:
    write_csv(path, ["theoretical", "empirical"], qq_table(values))


def write_histogram_csv(values, path, bins: int = 30) -> None:
    rows = [
        (float(a), float(b), int(c)) for a, b, c in histogram_table(values, bins)
    ]
    write_csv(path, ["bin_left", "bin_right", "count"], rows)
