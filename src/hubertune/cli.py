"""Command-line entry point.

Subcommands: fit, select, simulate, diagnose, check-derivatives. All
commands are deterministic given their flags and seeds. JSON reports follow
the schemas shipped under hubertune/schemas/.

Threads: for the length of a main() call, every loaded OpenBLAS runs one
thread, and so does each worker that `select --jobs` and `simulate --jobs`
fork; the previous count is restored on return. A user who sets
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS keeps the thread
count those give instead. `--jobs N` counts this process and N - 1 forked
workers; it defaults to the usable CPU count divided by that thread count,
one process per CPU under the policy. No more processes work than there
are grid cells or replications, and the reports are the same for every
`--jobs` value.

Output paths are checked before any input is read: a parent directory that
does not exist, or an output file that is a directory, ends the call
before the first fit.

Exit codes: 0 success, 1 input error (an output path that cannot be
written included), 2 numerical failure, 3 no feasible candidate.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .blas import thread_policy
from .criterion import DEFAULT_ETA, evaluate, evaluate_grid, select
from .data import Dataset
from .errors import (
    DegenerateDenominator,
    DegenerateFit,
    IllPosed,
    InputError,
    NoFeasibleCandidate,
    NonConvergence,
    SingularSystem,
)
from .formatting import write_csv
from .losses import make_loss
from .penalties import ElasticNet
from .pool import default_jobs
from .sensitivity import CHECK_TOLERANCES, run_derivative_checks
from .simulate import (
    GRID_METRICS,
    parse_grid_cells,
    parse_sim_config,
    run_grid,
    write_aggregate_csv,
    write_pivot_csv,
)
from .solver import FitOptions

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_INFEASIBLE = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; our contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# Input reading
# ---------------------------------------------------------------------------


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def read_matrix_csv(path, header: bool = False) -> np.ndarray:
    """Parse a numeric CSV; errors carry the offending line and column.

    numpy's parser reads well-formed files. Anything it refuses or warns
    about (a ragged row, a bad field, a whitespace-only line, no data at
    all) goes to _parse_fields, which accepts what float() accepts and
    words every error.
    """
    lines = _read_text(path).splitlines()
    start = 1 if header else 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # loadtxt's "no data" warning
        try:
            return np.loadtxt(lines[start:], delimiter=",", ndmin=2, comments=None)
        except (ValueError, UserWarning):
            pass
    return _parse_fields(path, lines, start)


def _parse_fields(path, lines, start: int) -> np.ndarray:
    """The rows lines[start:] field by field with float(); blank lines skip."""
    rows = []
    width = None
    for lineno in range(start, len(lines)):
        line = lines[lineno]
        if not line.strip():
            continue
        fields = line.split(",")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise InputError(
                f"{path}: line {lineno + 1}: expected {width} fields, got {len(fields)}"
            )
        values = []
        for col, field in enumerate(fields, start=1):
            try:
                values.append(float(field))
            except ValueError:
                raise InputError(
                    f"{path}: line {lineno + 1}, column {col}: "
                    f"not a number: {field.strip()!r}"
                ) from None
        rows.append(values)
    if not rows:
        raise InputError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def read_response_csv(path, header: bool = False) -> np.ndarray:
    mat = read_matrix_csv(path, header)
    if mat.shape[1] != 1:
        raise InputError(
            f"{path}: response must have exactly one column, found {mat.shape[1]}"
        )
    return mat[:, 0]


def _read_dataset(args) -> Dataset:
    X = read_matrix_csv(args.design, args.header)
    y = read_response_csv(args.response, args.header)
    try:
        return Dataset(X, y)
    except ValueError as exc:
        raise InputError(f"invalid inputs: {exc}") from exc


def _load_grid(path):
    doc = _load_json(path)
    if isinstance(doc, dict) and set(doc) == {"grid"}:
        doc = doc["grid"]
    return parse_grid_cells(doc)


def _load_json(path):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# Flag -> object builders
# ---------------------------------------------------------------------------


def _loss_from_args(args):
    try:
        return make_loss(args.loss, huber_scale=args.huber_scale)
    except ValueError as exc:
        # --loss has fixed choices, so the scale is what make_loss refused.
        raise InputError(
            f"--huber-scale must be a finite number > 0, got {args.huber_scale}"
        ) from exc


def _penalty_from_args(args) -> ElasticNet:
    for flag, value in (("--lambda", args.lam), ("--tau", args.tau)):
        if not 0.0 <= value < math.inf:
            raise InputError(f"{flag} must be a finite number >= 0, got {value}")
    return ElasticNet(lam=args.lam, tau=args.tau)


def _options_from_args(args) -> FitOptions:
    try:
        return FitOptions(
            max_iterations=args.max_iterations,
            kkt_tolerance=args.kkt_tolerance,
            intercept=getattr(args, "intercept", False),
        )
    except ValueError as exc:
        # The messages start with the field name; the user typed the flag.
        raise InputError("--" + str(exc).replace("_", "-")) from exc


def _jobs_from_args(args) -> int:
    if args.jobs is None:
        return default_jobs()
    if args.jobs < 1:
        raise InputError(f"--jobs must be >= 1, got {args.jobs}")
    return args.jobs


def _eta_from_args(args) -> float:
    if not 0.0 <= args.eta <= 1.0:
        raise InputError(f"--eta must be a number in [0, 1], got {args.eta}")
    return args.eta


def _loss_doc(loss) -> dict:
    if math.isinf(loss.scale):
        return {"kind": "square"}
    return {"kind": "huber", "huber_scale": loss.scale}


def _penalty_doc(penalty: ElasticNet) -> dict:
    return {"lambda": penalty.lam, "tau": penalty.tau}


# ---------------------------------------------------------------------------
# Report writing
# ---------------------------------------------------------------------------


def _json_safe(value):
    """Recursively convert to plain JSON types; non-finite floats -> null."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if math.isfinite(v) else None
    return value


# Flags that name an output file; --pivot-dir names an output directory.
OUTPUT_FILE_FLAGS = ("out", "beta_out", "qq_out", "hist_out", "aggregate_out")


def check_outputs(args) -> None:
    """Raise InputError for an output path that cannot be written.

    Each output file needs an existing parent directory and must not itself
    be a directory; an output directory, created later if missing, needs
    its nearest existing ancestor to be a directory. Nothing is created.
    """
    for flag in OUTPUT_FILE_FLAGS:
        path = getattr(args, flag, None)
        if path is None:
            continue
        path = Path(path)
        if not path.parent.is_dir():
            raise InputError(f"cannot write {path}: {path.parent} is not a directory")
        if path.is_dir():
            raise InputError(f"cannot write {path}: it is a directory")
    directory = getattr(args, "pivot_dir", None)
    if directory is not None:
        ancestor = Path(directory)
        while not ancestor.exists() and ancestor.parent != ancestor:
            ancestor = ancestor.parent
        if not ancestor.is_dir():
            raise InputError(
                f"cannot create directory {directory}: {ancestor} is not a directory"
            )


def write_report(doc: dict, out) -> None:
    text = json.dumps(_json_safe(doc), indent=2, allow_nan=False) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


# Candidate.summary() keys of each report block, in its schema's
# "required" order; a select entry starts with index, loss and penalty.
FIT_SENSITIVITY_KEYS = ("df", "trace_v", "n_hat", "p_hat", "tau_eff")
FIT_CRITERION_KEYS = (
    "crit_adaptive", "ratio", "constraint_value", "constraint_ok", "eta", "crit_defined"
)
SELECT_ENTRY_KEYS = (
    "converged", "iterations",
    "crit_adaptive", "ratio", "constraint_value", "constraint_ok", "crit_defined",
    "feasible", "reason",
)


def _evaluate_one(args, eta: float = DEFAULT_ETA):
    """Read the inputs of fit/diagnose and evaluate their one candidate.

    Every flag is checked before the inputs are read. Non-convergence warns
    on stderr and keeps the best iterate.
    """
    loss = _loss_from_args(args)
    penalty = _penalty_from_args(args)
    options = _options_from_args(args)
    data = _read_dataset(args)
    cand = evaluate(data, loss, penalty, options, eta=eta)
    if cand.warning is not None:
        print(f"warning: {cand.warning}", file=sys.stderr)
    return data, cand


def cmd_fit(args) -> int:
    """Write the fit report; exit 2 when the fit did not converge."""
    data, cand = _evaluate_one(args, _eta_from_args(args))
    result, summary = cand.result, cand.summary()
    doc = {
        "command": "fit",
        "n": data.n,
        "p": data.p,
        "loss": _loss_doc(cand.loss),
        "penalty": _penalty_doc(cand.penalty),
        "with_intercept": result.with_intercept,
        "intercept": result.intercept_hat if result.with_intercept else None,
        "beta_hat": result.beta_hat,
        "residuals": result.residuals,
        "active_set": result.active_set,
        "iterations": result.iterations,
        "converged": result.converged,
        "kkt_residual": result.kkt_residual,
        "objective": result.objective,
        "sensitivity": {key: summary[key] for key in FIT_SENSITIVITY_KEYS},
        "criterion": {key: summary[key] for key in FIT_CRITERION_KEYS},
    }
    write_report(doc, args.out)
    if args.beta_out is not None:
        write_csv(args.beta_out, None, ((b,) for b in result.beta_hat))
    return EXIT_OK if result.converged else EXIT_NUMERICAL


def _select_entry(index: int, cand) -> dict:
    summary = cand.summary()
    return {
        "index": index,
        "loss": _loss_doc(cand.loss),
        "penalty": _penalty_doc(cand.penalty),
        **{key: summary[key] for key in SELECT_ENTRY_KEYS},
    }


def cmd_select(args) -> int:
    eta = _eta_from_args(args)
    jobs = _jobs_from_args(args)
    options = _options_from_args(args)
    cells = _load_grid(args.grid)
    data = _read_dataset(args)
    candidates = evaluate_grid(data, cells, options, eta, jobs)
    try:
        sel = select(candidates)
        selected, ranking = sel.selected_index, list(sel.ranking)
    except NoFeasibleCandidate:
        selected, ranking = None, []

    doc = {
        "command": "select",
        "n": data.n,
        "p": data.p,
        "eta": eta,
        "selected_index": selected,
        "ranking": ranking,
        "candidates": [_select_entry(i, c) for i, c in enumerate(candidates)],
    }
    write_report(doc, args.out)
    if selected is None:
        print(
            f"error: no candidate meets the feasibility constraint (eta={eta})",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_simulate(args) -> int:
    jobs = _jobs_from_args(args)
    config = parse_sim_config(_load_json(args.config))
    options = _options_from_args(args)
    result = run_grid(config, options=options, jobs=jobs)
    result.to_csv(args.out)
    if args.aggregate_out is not None:
        write_aggregate_csv(result, args.aggregate_out)
    if args.pivot_dir is not None:
        pivot_dir = Path(args.pivot_dir)
        pivot_dir.mkdir(parents=True, exist_ok=True)
        for metric in GRID_METRICS:
            write_pivot_csv(result, metric, pivot_dir / f"pivot_{metric}.csv")
    n_failed = sum(1 for rec in result.records if rec["failed"])
    print(
        f"wrote {len(result.records)} records ({n_failed} failed fits) to {args.out}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_diagnose(args) -> int:
    # Imported here: no other command needs diagnostics or its statistics.
    from .diagnostics import (
        ks_normal,
        normal_summary,
        residual_representation_check,
        write_histogram_csv,
        write_qq_csv,
    )

    if args.t_hat is not None and not 0.0 <= args.t_hat < math.inf:
        raise InputError(f"--t-hat must be a finite number >= 0, got {args.t_hat}")
    if args.bins < 1:
        raise InputError("--bins must be >= 1")
    data, cand = _evaluate_one(args)
    result, loss, summary = cand.result, cand.loss, cand.summary()

    if args.t_hat is not None:
        t_hat = args.t_hat
        source = "flag"
    else:
        if not summary["crit_defined"]:
            raise DegenerateDenominator(
                "trace of V is numerically zero; pass --t-hat explicitly"
            )
        t_hat = summary["ratio"]
        source = "adaptive"

    rep = residual_representation_check(result, loss, t_hat)
    u = rep.effective_obs
    moments = normal_summary(u)
    if moments.variance <= 0:
        raise DegenerateDenominator(
            "debiased residuals are constant; nothing to standardize"
        )
    z = (u - moments.mean) / math.sqrt(moments.variance)

    doc = {
        "command": "diagnose",
        "n": data.n,
        "p": data.p,
        "loss": _loss_doc(loss),
        "penalty": _penalty_doc(cand.penalty),
        "converged": summary["converged"],
        "t_hat": t_hat,
        "t_hat_source": source,
        "max_prox_gap": float(np.max(rep.gaps)),
        "effective_observations": summary["n_hat"],
        "debiased_moments": {
            "mean": moments.mean,
            "variance": moments.variance,
            "skewness": moments.skewness,
            "excess_kurtosis": moments.excess_kurtosis,
        },
        "ks_standardized": ks_normal(z),
    }
    write_report(doc, args.out)
    if args.qq_out is not None:
        write_qq_csv(z, args.qq_out)
    if args.hist_out is not None:
        write_histogram_csv(z, args.hist_out, bins=args.bins)
    return EXIT_OK if result.converged else EXIT_NUMERICAL


def cmd_check_derivatives(args) -> int:
    if not 1 <= args.n <= 100:
        raise InputError("--n must be between 1 and 100")
    if not 1 <= args.p <= 50:
        raise InputError("--p must be between 1 and 50")
    if args.seed < 0:
        raise InputError("--seed must be >= 0")
    loss = _loss_from_args(args)
    penalty = _penalty_from_args(args)
    report = run_derivative_checks(
        args.n, args.p, loss, penalty, args.seed, fault=args.fault
    )

    lines = [
        f"fixture: n={report.n} p={report.p} seed={report.seed}",
        f"jacobian_y relative error: {report.jacobian_rel_error:.3e}"
        f" (tolerance {CHECK_TOLERANCES['jacobian_rel']:.1e})",
        f"df absolute error: {report.df_abs_error:.3e}"
        f" (tolerance {CHECK_TOLERANCES['trace_abs']:.1e})",
        f"trace_V absolute error: {report.trace_v_abs_error:.3e}"
        f" (tolerance {CHECK_TOLERANCES['trace_abs']:.1e})",
    ]
    for crep in report.contraction_reports:
        resid = " ".join(f"{r:.3e}" for r in crep.residuals)
        lines.append(
            f"contraction residuals at step {crep.step:g}: {resid}"
            f" (tolerance {CHECK_TOLERANCES['contraction_abs']:.1e} each)"
        )
    if report.passed:
        lines.append("all derivative checks passed")
    else:
        lines.append("FAILED: " + ", ".join(report.failures))
    print("\n".join(lines))

    if args.out is not None:
        doc = {
            "command": "check-derivatives",
            "n": report.n,
            "p": report.p,
            "seed": report.seed,
            "loss": _loss_doc(loss),
            "penalty": _penalty_doc(penalty),
            "fault": args.fault,
            "jacobian_rel_error": report.jacobian_rel_error,
            "df_abs_error": report.df_abs_error,
            "trace_v_abs_error": report.trace_v_abs_error,
            "contraction": [
                {"step": crep.step, "residuals": crep.residuals}
                for crep in report.contraction_reports
            ],
            "tolerances": dict(CHECK_TOLERANCES),
            "failures": list(report.failures),
            "passed": report.passed,
        }
        write_report(doc, args.out)
    return EXIT_OK if report.passed else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_loss_flags(p, lam_default: float = 0.0, tau_default: float = 0.0):
    p.add_argument(
        "--loss", choices=["huber", "square"], default="huber", help="loss function"
    )
    p.add_argument(
        "--huber-scale",
        type=float,
        default=1.0,
        help="huber transition point (ignored for square loss)",
    )
    p.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        default=lam_default,
        help="l1 penalty weight",
    )
    p.add_argument(
        "--tau", type=float, default=tau_default, help="ridge penalty weight"
    )


def _add_solver_flags(p, with_intercept: bool = True):
    p.add_argument("--max-iterations", type=int, default=50_000)
    p.add_argument("--kkt-tolerance", type=float, default=1e-8)
    if with_intercept:
        p.add_argument(
            "--intercept", action="store_true", help="fit an unpenalized intercept"
        )


def _add_jobs_flag(p, unit: str):
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=f"processes, this one included, at most one per {unit} (default: one "
        "per usable CPU); each runs one BLAS thread unless OPENBLAS_NUM_THREADS, "
        "OMP_NUM_THREADS or MKL_NUM_THREADS is set",
    )


def _add_io_flags(p):
    p.add_argument(
        "--header", action="store_true", help="input CSVs start with a header row"
    )
    p.add_argument(
        "--out", default=None, help="write the JSON report here instead of stdout"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hubertune",
        description="Robust regularized regression with derivative-based tuning.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    fit_p = sub.add_parser("fit", help="fit one model and report its criteria")
    fit_p.add_argument("design", help="n x p design CSV")
    fit_p.add_argument("response", help="n x 1 response CSV")
    _add_loss_flags(fit_p)
    _add_solver_flags(fit_p)
    _add_io_flags(fit_p)
    fit_p.add_argument("--eta", type=float, default=DEFAULT_ETA)
    fit_p.add_argument(
        "--beta-out", default=None, help="also write beta_hat as a one-column CSV"
    )

    sel_p = sub.add_parser("select", help="fit a candidate grid and pick the best")
    sel_p.add_argument("design")
    sel_p.add_argument("response")
    sel_p.add_argument("grid", help="JSON array of {huber_scale, lambda, tau} cells")
    _add_solver_flags(sel_p)
    _add_io_flags(sel_p)
    sel_p.add_argument("--eta", type=float, default=DEFAULT_ETA)
    _add_jobs_flag(sel_p, "grid cell")

    sim_p = sub.add_parser("simulate", help="run a seeded Monte Carlo grid")
    sim_p.add_argument("config", help="simulation config JSON")
    sim_p.add_argument("--out", required=True, help="grid records CSV")
    sim_p.add_argument(
        "--aggregate-out", default=None, help="per-cell summary statistics CSV"
    )
    sim_p.add_argument(
        "--pivot-dir",
        default=None,
        help="directory for per-metric (lambda x tau) mean pivot CSVs",
    )
    _add_jobs_flag(sim_p, "replication")
    _add_solver_flags(sim_p, with_intercept=False)

    diag_p = sub.add_parser(
        "diagnose", help="debiased-residual normality diagnostics for one fit"
    )
    diag_p.add_argument("design")
    diag_p.add_argument("response")
    _add_loss_flags(diag_p)
    _add_solver_flags(diag_p)
    _add_io_flags(diag_p)
    diag_p.add_argument(
        "--t-hat",
        type=float,
        default=None,
        help="debiasing factor (default: df / trace_V from the fit)",
    )
    diag_p.add_argument("--qq-out", default=None, help="QQ table CSV")
    diag_p.add_argument("--hist-out", default=None, help="histogram CSV")
    diag_p.add_argument("--bins", type=int, default=30)

    chk_p = sub.add_parser(
        "check-derivatives",
        help="verify closed-form derivatives against finite differences",
    )
    chk_p.add_argument("--n", type=int, default=30, help="fixture rows (max 100)")
    chk_p.add_argument("--p", type=int, default=10, help="fixture columns (max 50)")
    chk_p.add_argument("--seed", type=int, default=0)
    _add_loss_flags(chk_p, lam_default=0.1, tau_default=0.1)
    chk_p.add_argument("--out", default=None, help="also write a JSON report here")
    chk_p.add_argument(
        "--fault",
        choices=["corrupt-a-hat"],
        default=None,
        help="inject a known corruption (negative control; the run must fail)",
    )

    return parser


_HANDLERS = {
    "fit": cmd_fit,
    "select": cmd_select,
    "simulate": cmd_simulate,
    "diagnose": cmd_diagnose,
    "check-derivatives": cmd_check_derivatives,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        check_outputs(args)
        with thread_policy():
            return _HANDLERS[args.command](args)
    except (InputError, IllPosed, OSError) as exc:
        # Inputs that cannot be read are InputErrors already; an OSError here
        # is an output path that cannot be written.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NoFeasibleCandidate as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NonConvergence, SingularSystem, DegenerateFit, DegenerateDenominator) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
