"""Seeded inputs for the benchmark workloads.

The benchmark generates every design with its own numpy code and hands the
program only files: a design and a response CSV plus a grid JSON for
`select`, and a config JSON for `simulate`. The same (workload, seed, size)
always writes the same bytes.

A run cycles through several input sets drawn from its seed, so that its
median reflects the program rather than one draw: on the p > n path the
solver's iteration count per call varies from 10.7k to 28.9k between
draws. Where the work barely depends on the draw, fewer sets keep the
input generation short.
`check-derivatives` runs with its default flags, fixture seed included,
because its cost per fixture varies by a factor of 2.5 between seeds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("select_path", "select_wide", "simulate_heavy", "derivcheck")

# Problem sizes. "full" is the measured size; "smoke" runs every code
# path and every correctness check in well under a second per call.
SIZES = {
    "full": {
        "select_path": {"n": 300, "p": 600},
        "select_wide": {"n": 500, "p": 1000},
        "simulate_heavy": {"n": 400, "p": 200, "replications": 12},
        "derivcheck": {"n": 30, "p": 10},
    },
    "smoke": {
        "select_path": {"n": 40, "p": 80},
        "select_wide": {"n": 40, "p": 80},
        "simulate_heavy": {"n": 60, "p": 20, "replications": 4},
        "derivcheck": {"n": 6, "p": 3},
    },
}

HUBER_SCALE_PER_ROOT_N = 0.054
INPUT_SETS = {"select_path": 8, "select_wide": 2, "simulate_heavy": 4, "derivcheck": 1}


@dataclass(frozen=True)
class Call:
    """One CLI invocation: its arguments, the files it writes, its operations.

    `ops` is the number of operations the call performs, the unit in which
    failures are counted: grid cells for `select`, records for `simulate`,
    and one derivative check for `check-derivatives`.
    """

    workload: str
    argv: tuple
    inputs: dict
    outputs: dict
    ops: int
    jobs: int = 1


def _rng(workload: str, seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), int(seed) & 0xFFFFFFFF, k])


def sparse_signal(p: int) -> np.ndarray:
    signal = np.zeros(p)
    signal[: math.ceil(p / 10)] = math.sqrt(p) / 100.0
    return signal


def anisotropic_design(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    """Rows N(0, Sigma) with Sigma = R'R/(2p), R a (2p) x p sign matrix."""
    R = 2.0 * rng.integers(0, 2, size=(2 * p, p)).astype(float) - 1.0
    L = np.linalg.cholesky(R.T @ R / (2.0 * p))
    return rng.standard_normal((n, p)) @ L.T


def t2_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n) / np.sqrt(rng.chisquare(2.0, n) / 2.0)


def _write_matrix(path: Path, values: np.ndarray) -> None:
    np.savetxt(path, np.atleast_2d(values.T).T, delimiter=",", fmt="%.17g")


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n")


def _cells(n: int, lambdas, taus) -> list:
    scale = HUBER_SCALE_PER_ROOT_N * math.sqrt(n)
    return [
        {"huber_scale": scale, "lambda": lam, "tau": tau}
        for lam in lambdas
        for tau in taus
    ]


def _select_call(workload, workdir, X, y, grid) -> Call:
    design, response, grid_path = (
        workdir / "design.csv",
        workdir / "response.csv",
        workdir / "grid.json",
    )
    _write_matrix(design, X)
    _write_matrix(response, y)
    _write_json(grid_path, grid)
    report = workdir / "report.json"
    argv = ("select", str(design), str(response), str(grid_path), "--out", str(report))
    inputs = {"design": design, "response": response, "grid": grid_path}
    return Call(workload, argv, inputs, {"report": report}, ops=len(grid))


def select_path(rng, workdir: Path, n: int, p: int) -> Call:
    """p > n lasso path: 10 elastic-net cells plus 4 pure-lasso cells."""
    X = anisotropic_design(rng, n, p)
    y = X @ sparse_signal(p) + t2_noise(rng, n)
    grid = _cells(n, (0.16, 0.08, 0.04, 0.02, 0.01), (0.1, 0.01))
    grid += _cells(n, (0.16, 0.08, 0.04, 0.02), (0.0,))
    return _select_call("select_path", workdir, X, y, grid)


def select_wide(rng, workdir: Path, n: int, p: int) -> Call:
    """Ridge-heavy cells on an isotropic design: large active sets."""
    X = rng.standard_normal((n, p))
    y = X @ sparse_signal(p) + t2_noise(rng, n)
    grid = _cells(n, (0.0, 0.005), (0.05, 0.1, 0.2, 0.5))
    return _select_call("select_wide", workdir, X, y, grid)


def simulate_heavy(
    rng, workdir: Path, n: int, p: int, replications: int, jobs: int = 2
) -> Call:
    """The acceptance heavy-tail config with seeds drawn from `rng`."""
    sigma_seed, base_seed = (int(v) for v in rng.integers(0, 2**31, size=2))
    config = {
        "n": n,
        "p": p,
        "sigma_seed": sigma_seed,
        "noise_kind": {"kind": "student_t", "dof": 2},
        "signal_kind": "sparse",
        "grid": _cells(n, (0.02, 0.04), (0.05, 0.1)),
        "replications": replications,
        "base_seed": base_seed,
    }
    config_path = workdir / "sim_config.json"
    _write_json(config_path, config)
    outputs = {
        "records": workdir / "records.csv",
        "aggregate": workdir / "aggregate.csv",
        "pivots": workdir / "pivots",
    }
    argv = (
        "simulate",
        str(config_path),
        "--out",
        str(outputs["records"]),
        "--aggregate-out",
        str(outputs["aggregate"]),
        "--pivot-dir",
        str(outputs["pivots"]),
        "--jobs",
        str(jobs),
    )
    ops = replications * len(config["grid"])
    return Call("simulate_heavy", argv, {"config": config_path}, outputs, ops, jobs)


def derivcheck(rng, workdir: Path, n: int, p: int) -> Call:
    """check-derivatives with its default flags (n=30, p=10, seed 0)."""
    report = workdir / "check.json"
    argv = ("check-derivatives", "--out", str(report))
    if (n, p) != (30, 10):
        argv += ("--n", str(n), "--p", str(p))
    return Call("derivcheck", argv, {}, {"report": report}, ops=1)


_BUILDERS = {
    "select_path": select_path,
    "select_wide": select_wide,
    "simulate_heavy": simulate_heavy,
    "derivcheck": derivcheck,
}


def prepare(
    workload: str, seed: int, workdir: Path, size: str = "full", jobs: int = 2
) -> list:
    """Write the input sets of `workload` under `workdir`; one Call per set."""
    params = dict(SIZES[size][workload])
    if workload == "simulate_heavy":
        params["jobs"] = jobs
    calls = []
    for k in range(INPUT_SETS[workload]):
        sub = workdir / f"set{k}"
        sub.mkdir(parents=True, exist_ok=True)
        calls.append(_BUILDERS[workload](_rng(workload, seed, k), sub, **params))
    return calls
