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

import math
import sys
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .criterion import crit_oracle_sigma, evaluate_grid, out_of_sample_error
from .data import Dataset
from .errors import InputError, SingularSystem
from .formatting import format_value, write_csv
from .losses import HuberLoss
from .penalties import ElasticNet
from .pool import map_items
from .sensitivity import trace_sigma_A
from .solver import FitOptions


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
class SimConfig:
    n: int
    p: int
    sigma_seed: int
    noise_kind: NoiseKind
    signal_kind: Union[str, tuple]  # "sparse" or an explicit coefficient tuple
    grid: tuple  # of (HuberLoss, ElasticNet) cells
    replications: int
    base_seed: int
    design_kind: str = "gaussian"  # "rademacher" is an extension, no guarantees
    redraw_sigma_per_replication: bool = False

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise InputError("n and p must be >= 1")
        if self.replications < 1:
            raise InputError("replications must be >= 1")
        if self.sigma_seed < 0 or self.base_seed < 0:
            raise InputError("sigma_seed and base_seed must be >= 0")
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


def _number(value, what: str) -> float:
    """value as a float; it must be a finite JSON number (not a bool)."""
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    # Exact for ints too, so an integer literal beyond float range fails.
    if not (is_number and abs(value) <= sys.float_info.max):
        raise InputError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, what: str) -> int:
    """value as an int; it must be a JSON integer (30.0 counts, not a bool)."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def _parse_noise(obj, where: str) -> NoiseKind:
    if not isinstance(obj, dict):
        raise InputError(f"{where} must be an object with a 'kind' field")
    kind = obj.get("kind")
    if kind == "gaussian":
        _require_keys(obj, {"kind", "sigma"}, set(), where)
        sigma = _number(obj["sigma"], f"{where}: sigma")
        if sigma < 0:
            raise InputError(f"{where}: sigma must be nonnegative")
        return GaussianNoise(sigma=sigma)
    if kind == "student_t":
        _require_keys(obj, {"kind", "dof"}, set(), where)
        dof = _number(obj["dof"], f"{where}: dof")
        if dof <= 0:
            raise InputError(f"{where}: dof must be positive")
        return StudentTNoise(dof=dof)
    raise InputError(f"{where}: kind must be 'gaussian' or 'student_t'")


def _parse_cell(obj, where: str) -> tuple:
    """One (HuberLoss, ElasticNet) cell; huber_scale null is the square loss."""
    if not isinstance(obj, dict):
        raise InputError(f"{where} must be an object")
    _require_keys(obj, {"huber_scale", "lambda", "tau"}, set(), where)
    hs = obj["huber_scale"]
    if hs is not None:
        hs = _number(hs, f"{where}: huber_scale")
        if hs <= 0:
            raise InputError(f"{where}: huber_scale must be positive or null")
    lam = _number(obj["lambda"], f"{where}: lambda")
    tau = _number(obj["tau"], f"{where}: tau")
    if lam < 0 or tau < 0:
        raise InputError(f"{where}: lambda and tau must be nonnegative")
    return HuberLoss(math.inf if hs is None else hs), ElasticNet(lam=lam, tau=tau)


def parse_grid_cells(items) -> tuple:
    """Parse a JSON array of {huber_scale, lambda, tau} objects into a tuple
    of (HuberLoss, ElasticNet) pairs; a cell listed twice is refused."""
    if not isinstance(items, list):
        raise InputError("grid must be an array of cells")
    if not items:
        raise InputError("grid must be nonempty")
    cells = tuple(_parse_cell(cell, f"grid[{k}]") for k, cell in enumerate(items))
    first = {}
    for j, (loss, penalty) in enumerate(cells):
        if (i := first.setdefault((loss.scale, penalty.lam, penalty.tau), j)) != j:
            raise InputError(f"grid[{i}] and grid[{j}] are the same cell")
    return cells


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
        signal = tuple(
            _number(v, f"signal_kind[{k}]") for k, v in enumerate(raw_signal)
        )
    else:
        raise InputError("signal_kind must be 'sparse' or an array of numbers")
    cells = parse_grid_cells(doc["grid"])
    redraw = doc.get("redraw_sigma_per_replication", False)
    if not isinstance(redraw, bool):
        raise InputError(
            f"redraw_sigma_per_replication must be true or false, got {redraw!r}"
        )
    return SimConfig(
        n=_integer(doc["n"], "n"),
        p=_integer(doc["p"], "p"),
        sigma_seed=_integer(doc["sigma_seed"], "sigma_seed"),
        noise_kind=noise,
        signal_kind=signal,
        grid=cells,
        replications=_integer(doc["replications"], "replications"),
        base_seed=_integer(doc["base_seed"], "base_seed"),
        design_kind=str(doc.get("design_kind", "gaussian")),
        redraw_sigma_per_replication=redraw,
    )


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
    factor: Optional[np.ndarray] = None,
):
    """Draw (Dataset, eps) with X rows N(0, Sigma) and y = X beta* + eps.

    Draw order is fixed (design first, then noise) so equal seeds reproduce
    (X, eps) bit-identically. ``factor``, Sigma's lower Cholesky factor, is
    computed here when not given. design_kind='rademacher' replaces the
    rows by independent +/-1 entries (identity covariance; extension only).
    """
    rng = np.random.default_rng(seed)
    if design_kind == "gaussian":
        L = np.linalg.cholesky(np.asarray(Sigma, dtype=float)) if factor is None else factor
        X = rng.standard_normal((n, p)) @ L.T
    elif design_kind == "rademacher":
        X = 2.0 * rng.integers(0, 2, size=(n, p)).astype(float) - 1.0
    else:
        raise ValueError(f"unknown design_kind: {design_kind!r}")
    eps = noise_kind.sample(rng, n)
    y = X @ np.asarray(beta_star, dtype=float) + eps
    return Dataset(X, y), eps


# One record per (cell, replication): a dict keyed by these columns, plus
# the solver's newton_attempts, which the CSV leaves out.
GRID_COLUMNS = [
    "lambda", "tau", "huber_scale", "replication",
    "df", "trace_v", "n_hat", "p_hat", "trace_sigma_a",
    "crit_adaptive", "crit_oracle", "oos_error", "eps_norm_sq_over_n",
    "constraint_value", "solver_iterations", "failed",
]

# Metrics that aggregate() summarizes and cmd_simulate pivots.
GRID_METRICS = GRID_COLUMNS[4:15]

# The columns a record takes from Candidate.summary() under the same name.
SUMMARY_COLUMNS = ("df", "trace_v", "n_hat", "p_hat", "crit_adaptive", "constraint_value")


def write_records_csv(records, path) -> None:
    """The records as CSV, GRID_COLUMNS in order."""
    write_csv(path, GRID_COLUMNS, ([rec[col] for col in GRID_COLUMNS] for rec in records))


def _covariance(config: SimConfig, seed: int) -> tuple:
    """(Sigma, factor) of the design: make_covariance(config.p, seed) and
    the Cholesky factor a Gaussian design draws through, or (I, None) for a
    Rademacher design, whose +/-1 entries are independent."""
    if config.design_kind == "rademacher":
        return np.eye(config.p), None
    Sigma = make_covariance(config.p, seed)
    return Sigma, np.linalg.cholesky(Sigma)


def _replication_records(config: SimConfig, options: FitOptions, shared_sigma, rep: int):
    """All grid-cell records of one replication (the item map_items runs).
    shared_sigma is the (Sigma, factor) pair of every replication, or None
    when each replication draws its own."""
    Sigma, factor = shared_sigma or _covariance(config, config.sigma_seed ^ rep)
    beta_star = config.signal()
    data, eps = generate(
        config.n,
        config.p,
        Sigma,
        beta_star,
        config.noise_kind,
        config.base_seed ^ rep,
        config.design_kind,
        factor,
    )
    eps_term = float(eps @ eps) / config.n

    out = []
    for cand in evaluate_grid(data, config.grid, options):
        summary, scale = cand.summary(), cand.loss.scale
        record = {
            "lambda": cand.penalty.lam,
            "tau": cand.penalty.tau,
            "huber_scale": None if math.isinf(scale) else scale,
            "replication": rep,
            "oos_error": out_of_sample_error(cand.result.beta_hat, beta_star, Sigma),
            "eps_norm_sq_over_n": eps_term,
            "solver_iterations": summary["iterations"],
            "newton_attempts": summary["newton_attempts"],
            **{col: summary[col] for col in SUMMARY_COLUMNS},
        }
        # A_hat is formed here, from the design; at tau = 0 it can be
        # singular, and the record then fails with NaN in the two columns
        # that read it.
        try:
            t_hat = trace_sigma_A(cand.bundle, data.X, Sigma)
        except SingularSystem:
            record.update(trace_sigma_a=math.nan, crit_oracle=math.nan, failed=True)
        else:
            record["trace_sigma_a"] = t_hat
            record["crit_oracle"] = crit_oracle_sigma(cand.result, cand.loss, t_hat)
            record["failed"] = not summary["converged"]
        out.append(record)
    return out


def run_grid(
    config: SimConfig, options: Optional[FitOptions] = None, jobs: int = 1
) -> tuple:
    """Fit every (cell, replication) pair and record all criteria.

    Returns the records, each a dict keyed by GRID_COLUMNS, plus newton_attempts.
    Non-converged cells are recorded with failed True (using the best
    iterate), never dropped. Records come back sorted by (replication,
    cell order). With jobs > 1 the replications run on up to that many
    processes, this one included (hubertune.pool). Unless Sigma is redrawn
    per replication, it and its Cholesky factor are drawn once, here,
    before any worker starts; forked workers inherit them with config and
    options, map_items's shared arguments. The jobs count changes wall
    time only, not any value.
    """
    if options is None:
        options = FitOptions()
    redraw = config.redraw_sigma_per_replication
    shared_sigma = None if redraw else _covariance(config, config.sigma_seed)
    reps = range(config.replications)
    per_rep = map_items(_replication_records, (config, options, shared_sigma), reps, jobs)
    return tuple(rec for rep_records in per_rep for rec in rep_records)


AGGREGATE_STATS = ["mean", "median", "q25", "q75"]


def _median_quartiles(values: np.ndarray) -> list:
    """[median, q25, q75] of values, bit for bit as np.median(values) and
    np.quantile(values, q) give them; those two import numpy.ma (about 12
    ms) on first use. Each partitions a copy of values at numpy's indices,
    so equal values of either sign (0.0, -0.0) land where numpy puts them.
    A NaN lands last, and numpy then returns it."""
    n, half = values.shape[0], values.shape[0] // 2
    s = np.partition(values, [half, -1] if n % 2 else [half - 1, half, -1])
    if np.isnan(s[-1]):
        return [float(s[-1])] * 3
    # np.median: np.mean of the middle one or two, a sum that starts at 0.0.
    out = [float(0.0 + s[half] if n % 2 else (0.0 + s[half - 1] + s[half]) / 2.0)]
    for q in (0.25, 0.75):
        v = (n - 1) * q  # numpy's virtual index, exact for these q
        lo = math.floor(v) if v < n - 1 else -1  # at n = 1, numpy's -1
        hi = lo + 1 if lo >= 0 else -1
        s = np.partition(values, sorted({0, -1, lo, hi}))  # np.unique loads numpy.ma
        a, b, t = s[lo], s[hi], v - lo
        d = b - a  # numpy's _lerp, which interpolates from the nearer end
        out.append(float(b - d * (1.0 - t) if t >= 0.5 else a + d * t))
    return out


def aggregate(records):
    """Per-cell summary of run_grid's records over converged replications.

    Returns (header, rows): cell keys, record counts, then
    {metric}_{mean,median,q25,q75} for every recorded metric, each None
    (an empty CSV field) in a cell with no converged record.
    Cells keep their first-appearance order; replication order does not matter.
    """
    if not records:
        raise ValueError("no records to aggregate")
    header = ["lambda", "tau", "huber_scale", "n_records", "n_failed"]
    for metric in GRID_METRICS:
        for stat in AGGREGATE_STATS:
            header.append(f"{metric}_{stat}")

    groups = {}
    for rec in records:
        groups.setdefault((rec["lambda"], rec["tau"], rec["huber_scale"]), []).append(rec)

    rows = []
    for key, recs in groups.items():
        ok = [r for r in recs if not r["failed"]]
        row = [*key, len(recs), len(recs) - len(ok)]
        for metric in GRID_METRICS if ok else ():
            vals = np.array([r[metric] for r in ok], dtype=float)
            row.append(float(np.mean(vals)))
            row.extend(_median_quartiles(vals))
        rows.append(tuple(row + [None] * (len(header) - len(row))))
    return header, rows


def pivot_clash(cells, name: str) -> Optional[str]:
    """Why a (lambda x tau) pivot cannot hold cells, (lambda, tau,
    huber_scale) triples called name[k]: the first two that share (lambda,
    tau) but differ in huber_scale. None when it can."""
    first = {}
    for j, (lam, tau, scale) in enumerate(cells):
        i, first_scale = first.setdefault((lam, tau), (j, scale))
        if scale != first_scale:
            return f"{name}[{i}] and {name}[{j}] differ only in huber_scale"
    return None


def pivot_table(table, metric: str):
    """One metric of aggregate's (header, rows) table, as its per-cell
    mean in the (lambda x tau) heatmap layout.

    First column the lambda values (ascending), remaining columns one per
    tau (ascending). An entry is None (an empty CSV field) where the pair
    has no cell, or where aggregate left its cell's mean blank. Raises
    ValueError for an unknown metric, or for two cells at one (lambda, tau).
    """
    if metric not in GRID_METRICS:
        raise ValueError(f"unknown metric: {metric!r}")
    header, rows = table
    if clash := pivot_clash((row[:3] for row in rows), "rows"):
        raise ValueError(clash)
    mean = header.index(f"{metric}_mean")
    cells = {(row[0], row[1]): row[mean] for row in rows}
    lams = sorted({k[0] for k in cells})
    taus = sorted({k[1] for k in cells})
    body = [(lam, *(cells.get((lam, tau)) for tau in taus)) for lam in lams]
    return ["lambda"] + [format_value(t) for t in taus], body
