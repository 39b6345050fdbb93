"""Seeded Monte Carlo harness: data generation, grid sweeps, aggregation.

The data-generation protocol: a fixed covariance Sigma = R'R/(2p) built
from a (2p) x p matrix of independent signs (its diagonal is exactly 1), a
sparse signal whose first ceil(p/10) coordinates equal sqrt(p)/100, design
rows drawn N(0, Sigma) via the Cholesky factor, and noise either Gaussian
or Student t (sampled by the normal-over-chi construction; t with 2 degrees
of freedom has infinite variance on purpose — that is the heavy-tail
regime of interest).

Determinism contract: identical configs give byte-identical serialized
results. Sigma uses sigma_seed; replication r draws data from
base_seed XOR r; execution order (including the parallel path) never
affects any recorded value, because each replication's work depends only
on its own seed and records are emitted in canonical (replication, cell)
order.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .blas import get_threads, set_threads
from .criterion import crit_adaptive, crit_oracle_sigma, out_of_sample_error
from .data import Dataset
from .errors import InputError, NonConvergence, SingularSystem
from .formatting import format_value, write_csv
from .losses import HuberLoss, Loss, SquareLoss
from .penalties import ElasticNet
from .sensitivity import sensitivity_closed_form, trace_sigma_A
from .solver import FitOptions, fit, largest_singular_value


@dataclass(frozen=True)
class GaussianNoise:
    sigma: float

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.sigma * rng.standard_normal(n)


@dataclass(frozen=True)
class StudentTNoise:
    dof: float

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        z = rng.standard_normal(n)
        chi_sq = rng.chisquare(self.dof, n)
        return z / np.sqrt(chi_sq / self.dof)


NoiseKind = Union[GaussianNoise, StudentTNoise]


@dataclass(frozen=True)
class GridCell:
    """One tuning triple; huber_scale None means square loss."""

    huber_scale: Optional[float]
    lam: float
    tau: float

    def loss(self) -> Loss:
        if self.huber_scale is None:
            return SquareLoss()
        return HuberLoss(scale=self.huber_scale)

    def penalty(self) -> ElasticNet:
        return ElasticNet(lam=self.lam, tau=self.tau)


@dataclass(frozen=True)
class SimConfig:
    n: int
    p: int
    sigma_seed: int
    noise_kind: NoiseKind
    signal_kind: Union[str, tuple]  # "sparse" or an explicit coefficient tuple
    grid: tuple  # tuple of GridCell
    replications: int
    base_seed: int
    design_kind: str = "gaussian"  # "rademacher" is an extension, no guarantees
    redraw_sigma_per_replication: bool = False

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise InputError("n and p must be >= 1")
        if self.replications < 1:
            raise InputError("replications must be >= 1")
        if len(self.grid) == 0:
            raise InputError("grid must be nonempty")
        if self.design_kind not in ("gaussian", "rademacher"):
            raise InputError(f"unknown design_kind: {self.design_kind!r}")
        if isinstance(self.signal_kind, str):
            if self.signal_kind != "sparse":
                raise InputError(
                    f"signal_kind must be 'sparse' or a vector, got {self.signal_kind!r}"
                )
        elif len(self.signal_kind) != self.p:
            raise InputError(
                f"custom signal length {len(self.signal_kind)} != p ({self.p})"
            )

    def signal(self) -> np.ndarray:
        if isinstance(self.signal_kind, str):
            return make_signal(self.p)
        return np.asarray(self.signal_kind, dtype=float)


def _require_keys(obj: dict, required: set, optional: set, where: str):
    unknown = set(obj) - required - optional
    if unknown:
        raise InputError(f"unknown field(s) in {where}: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise InputError(f"missing field(s) in {where}: {sorted(missing)}")


def _parse_noise(obj, where: str) -> NoiseKind:
    if not isinstance(obj, dict):
        raise InputError(f"{where} must be an object with a 'kind' field")
    kind = obj.get("kind")
    if kind == "gaussian":
        _require_keys(obj, {"kind", "sigma"}, set(), where)
        return GaussianNoise(sigma=float(obj["sigma"]))
    if kind == "student_t":
        _require_keys(obj, {"kind", "dof"}, set(), where)
        dof = float(obj["dof"])
        if dof <= 0:
            raise InputError(f"{where}: dof must be positive")
        return StudentTNoise(dof=dof)
    raise InputError(f"{where}: kind must be 'gaussian' or 'student_t'")


def _parse_cell(obj, where: str) -> GridCell:
    if not isinstance(obj, dict):
        raise InputError(f"{where} must be an object")
    _require_keys(obj, {"huber_scale", "lambda", "tau"}, set(), where)
    hs = obj["huber_scale"]
    if hs is not None:
        hs = float(hs)
        if hs <= 0:
            raise InputError(f"{where}: huber_scale must be positive or null")
    lam = float(obj["lambda"])
    tau = float(obj["tau"])
    if lam < 0 or tau < 0:
        raise InputError(f"{where}: lambda and tau must be nonnegative")
    return GridCell(huber_scale=hs, lam=lam, tau=tau)


def parse_grid_cells(items, where: str = "grid") -> tuple:
    """Parse a JSON array of {huber_scale, lambda, tau} objects."""
    if not isinstance(items, list):
        raise InputError(f"{where} must be an array of cells")
    if not items:
        raise InputError(f"{where} must be nonempty")
    return tuple(_parse_cell(cell, f"{where}[{k}]") for k, cell in enumerate(items))


def parse_sim_config(doc: dict) -> SimConfig:
    """Build a SimConfig from a JSON-style document; unknown fields error."""
    if not isinstance(doc, dict):
        raise InputError("simulation config must be a JSON object")
    required = {
        "n",
        "p",
        "sigma_seed",
        "noise_kind",
        "signal_kind",
        "grid",
        "replications",
        "base_seed",
    }
    optional = {"design_kind", "redraw_sigma_per_replication"}
    _require_keys(doc, required, optional, "simulation config")
    noise = _parse_noise(doc["noise_kind"], "noise_kind")
    raw_signal = doc["signal_kind"]
    if isinstance(raw_signal, str):
        signal: Union[str, tuple] = raw_signal
    elif isinstance(raw_signal, (list, tuple)):
        signal = tuple(float(v) for v in raw_signal)
    else:
        raise InputError("signal_kind must be 'sparse' or an array of numbers")
    cells = parse_grid_cells(doc["grid"])
    return SimConfig(
        n=int(doc["n"]),
        p=int(doc["p"]),
        sigma_seed=int(doc["sigma_seed"]),
        noise_kind=noise,
        signal_kind=signal,
        grid=cells,
        replications=int(doc["replications"]),
        base_seed=int(doc["base_seed"]),
        design_kind=str(doc.get("design_kind", "gaussian")),
        redraw_sigma_per_replication=bool(
            doc.get("redraw_sigma_per_replication", False)
        ),
    )


def load_sim_config(path) -> SimConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_sim_config(doc)


def make_covariance(p: int, seed: int) -> np.ndarray:
    """Sigma = R'R/(2p) with R a (2p) x p matrix of independent +/-1 signs.

    Every diagonal entry is exactly 1 (each column's squared entries sum to
    2p). Identical (p, seed) give bit-identical matrices.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    rng = np.random.default_rng(seed)
    R = 2.0 * rng.integers(0, 2, size=(2 * p, p)).astype(float) - 1.0
    return (R.T @ R) / (2.0 * p)


def make_signal(p: int) -> np.ndarray:
    """First ceil(p/10) coordinates equal sqrt(p)/100, the rest zero.

    Keeps a 10% support fraction and the signal-energy scaling
    ||signal||^2 = ceil(p/10) * p / 10^4 at every p.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    k = math.ceil(p / 10)
    signal = np.zeros(p)
    signal[:k] = np.sqrt(p) / 100.0
    return signal


def generate(
    n: int,
    p: int,
    Sigma: np.ndarray,
    beta_star: np.ndarray,
    noise_kind: NoiseKind,
    seed: int,
    design_kind: str = "gaussian",
):
    """Draw (Dataset, eps) with X rows N(0, Sigma) and y = X beta* + eps.

    Draw order is fixed (design first, then noise) so equal seeds reproduce
    (X, eps) bit-identically. design_kind='rademacher' replaces the rows by
    independent +/-1 entries (identity covariance; extension only).
    """
    rng = np.random.default_rng(seed)
    if design_kind == "gaussian":
        L = np.linalg.cholesky(np.asarray(Sigma, dtype=float))
        X = rng.standard_normal((n, p)) @ L.T
    elif design_kind == "rademacher":
        X = 2.0 * rng.integers(0, 2, size=(n, p)).astype(float) - 1.0
    else:
        raise ValueError(f"unknown design_kind: {design_kind!r}")
    eps = noise_kind.sample(rng, n)
    y = X @ np.asarray(beta_star, dtype=float) + eps
    return Dataset(X, y), eps


GRID_COLUMNS = [
    "lambda",
    "tau",
    "huber_scale",
    "replication",
    "df",
    "trace_v",
    "n_hat",
    "p_hat",
    "trace_sigma_a",
    "crit_adaptive",
    "crit_oracle",
    "oos_error",
    "eps_norm_sq_over_n",
    "constraint_value",
    "solver_iterations",
    "failed",
]

# Metrics that aggregate() summarizes and cmd_simulate pivots.
GRID_METRICS = GRID_COLUMNS[4:15]


@dataclass(frozen=True)
class GridRecord:
    lam: float
    tau: float
    huber_scale: Optional[float]
    replication: int
    df: float
    trace_v: float
    n_hat: float
    p_hat: int
    trace_sigma_a: float
    crit_adaptive: float
    crit_oracle: float
    oos_error: float
    eps_norm_sq_over_n: float
    constraint_value: float
    solver_iterations: int
    failed: bool

    def row(self) -> tuple:
        return (
            self.lam,
            self.tau,
            "" if self.huber_scale is None else self.huber_scale,
            self.replication,
            self.df,
            self.trace_v,
            self.n_hat,
            self.p_hat,
            self.trace_sigma_a,
            self.crit_adaptive,
            self.crit_oracle,
            self.oos_error,
            self.eps_norm_sq_over_n,
            self.constraint_value,
            self.solver_iterations,
            self.failed,
        )


@dataclass(frozen=True)
class GridResult:
    records: tuple

    def to_csv(self, path) -> None:
        write_csv(path, GRID_COLUMNS, (rec.row() for rec in self.records))

    def metric(self, name: str) -> np.ndarray:
        pos = GRID_COLUMNS.index(name)
        return np.array([rec.row()[pos] for rec in self.records], dtype=float)


def _replication_records(config: SimConfig, options: FitOptions, rep: int):
    """All grid-cell records of one replication (worker for the pool)."""
    sigma_seed = (
        config.sigma_seed ^ rep if config.redraw_sigma_per_replication else config.sigma_seed
    )
    Sigma = make_covariance(config.p, sigma_seed)
    beta_star = config.signal()
    data, eps = generate(
        config.n,
        config.p,
        Sigma,
        beta_star,
        config.noise_kind,
        config.base_seed ^ rep,
        config.design_kind,
    )
    sig = largest_singular_value(data.X)
    cell_options = replace(options, lipschitz_bound=sig * sig / config.n)
    eps_term = float(eps @ eps) / config.n

    out = []
    for cell in config.grid:
        loss = cell.loss()
        penalty = cell.penalty()
        failed = False
        try:
            result = fit(data, loss, penalty, cell_options)
        except NonConvergence as exc:
            result = exc.result
            failed = True
        try:
            bundle = sensitivity_closed_form(data, loss, penalty, result)
            report = crit_adaptive(result, bundle, loss)
            record = GridRecord(
                lam=cell.lam,
                tau=cell.tau,
                huber_scale=cell.huber_scale,
                replication=rep,
                df=bundle.df,
                trace_v=bundle.trace_V,
                n_hat=bundle.n_hat,
                p_hat=bundle.p_hat,
                trace_sigma_a=trace_sigma_A(bundle, Sigma),
                crit_adaptive=report.crit_adaptive,
                crit_oracle=crit_oracle_sigma(result, bundle, Sigma, loss),
                oos_error=out_of_sample_error(result.beta_hat, beta_star, Sigma),
                eps_norm_sq_over_n=eps_term,
                constraint_value=report.constraint_value,
                solver_iterations=result.iterations,
                failed=failed,
            )
        except SingularSystem:
            record = GridRecord(
                lam=cell.lam,
                tau=cell.tau,
                huber_scale=cell.huber_scale,
                replication=rep,
                df=math.nan,
                trace_v=math.nan,
                n_hat=math.nan,
                p_hat=0,
                trace_sigma_a=math.nan,
                crit_adaptive=math.nan,
                crit_oracle=math.nan,
                oos_error=out_of_sample_error(result.beta_hat, beta_star, Sigma),
                eps_norm_sq_over_n=eps_term,
                constraint_value=math.nan,
                solver_iterations=result.iterations,
                failed=True,
            )
        out.append(record)
    return out


def run_grid(
    config: SimConfig, options: Optional[FitOptions] = None, jobs: int = 1
) -> GridResult:
    """Fit every (cell, replication) pair and record all criteria.

    Non-converged cells are recorded with failed=True (using the best
    iterate), never dropped. Records come back sorted by (replication,
    cell order); the jobs count changes wall time only, not any value.
    """
    if options is None:
        options = FitOptions()
    reps = range(config.replications)
    if jobs > 1 and config.replications > 1:
        # Workers run the parent's BLAS thread count whatever the start method.
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=set_threads, initargs=(get_threads(),)
        ) as pool:
            per_rep = list(
                pool.map(
                    _replication_records,
                    [config] * config.replications,
                    [options] * config.replications,
                    reps,
                )
            )
    else:
        per_rep = [_replication_records(config, options, rep) for rep in reps]
    records = tuple(rec for rep_records in per_rep for rec in rep_records)
    return GridResult(records=records)


AGGREGATE_STATS = ["mean", "median", "q25", "q75"]


def aggregate(result: GridResult):
    """Per-cell summary over converged replications.

    Returns (header, rows): cell keys, record counts, then
    {metric}_{mean,median,q25,q75} for every recorded metric. Cells keep
    their first-appearance order; replication order does not matter.
    """
    if not result.records:
        raise ValueError("no records to aggregate")
    header = ["lambda", "tau", "huber_scale", "n_records", "n_failed"]
    for metric in GRID_METRICS:
        for stat in AGGREGATE_STATS:
            header.append(f"{metric}_{stat}")

    order = []
    groups = {}
    for rec in result.records:
        key = (rec.lam, rec.tau, rec.huber_scale)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(rec)

    rows = []
    for key in order:
        recs = groups[key]
        ok = [r for r in recs if not r.failed]
        row = [
            key[0],
            key[1],
            "" if key[2] is None else key[2],
            len(recs),
            len(recs) - len(ok),
        ]
        sample = ok if ok else recs
        for metric in GRID_METRICS:
            pos = GRID_COLUMNS.index(metric)
            vals = np.array([r.row()[pos] for r in sample], dtype=float)
            row.extend(
                [
                    float(np.mean(vals)),
                    float(np.median(vals)),
                    float(np.quantile(vals, 0.25)),
                    float(np.quantile(vals, 0.75)),
                ]
            )
        rows.append(tuple(row))
    return header, rows


def write_aggregate_csv(result: GridResult, path) -> None:
    header, rows = aggregate(result)
    write_csv(path, header, rows)


def pivot_table(result: GridResult, metric: str):
    """Mean of one metric per (lambda, tau) over converged records.

    Heatmap layout: first column the lambda values (ascending), remaining
    columns one per tau (ascending); empty where a pair never appears.
    """
    if metric not in GRID_METRICS:
        raise ValueError(f"unknown metric: {metric!r}")
    pos = GRID_COLUMNS.index(metric)
    cells = {}
    for rec in result.records:
        if rec.failed:
            continue
        cells.setdefault((rec.lam, rec.tau), []).append(rec.row()[pos])
    lams = sorted({k[0] for k in cells})
    taus = sorted({k[1] for k in cells})
    header = ["lambda"] + [format_value(t) for t in taus]
    rows = []
    for lam in lams:
        row: list = [lam]
        for tau in taus:
            vals = cells.get((lam, tau))
            row.append(float(np.mean(vals)) if vals else "")
        rows.append(tuple(row))
    return header, rows


def write_pivot_csv(result: GridResult, metric: str, path) -> None:
    header, rows = pivot_table(result, metric)
    write_csv(path, header, rows)
