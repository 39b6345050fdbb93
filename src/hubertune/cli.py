"""Command-line entry point.

Subcommands: fit, select, simulate, diagnose, check-derivatives. All
commands are deterministic given their flags and seeds. JSON reports follow
the schemas shipped under hubertune/schemas/.

Threads: for the length of a main() call, every loaded OpenBLAS runs one
thread, and so does each `simulate --jobs` worker; the previous count is
restored on return. A user who sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS
or MKL_NUM_THREADS keeps the thread count those give instead.

Exit codes: 0 success, 1 input error, 2 numerical failure, 3 no feasible
candidate.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .blas import thread_policy
from .criterion import DEFAULT_ETA, ZERO_TRACE_V_REL, crit_adaptive, select
from .data import Dataset
from .diagnostics import (
    ks_normal,
    normal_summary,
    residual_representation_check,
    write_histogram_csv,
    write_qq_csv,
)
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
from .losses import HuberLoss, make_loss
from .penalties import ElasticNet
from .sensitivity import run_derivative_checks, sensitivity_closed_form
from .simulate import (
    GRID_METRICS,
    load_sim_config,
    parse_grid_cells,
    run_grid,
    write_aggregate_csv,
    write_pivot_csv,
)
from .solver import FitOptions, fit, largest_singular_value

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
    """Parse a numeric CSV; errors carry the offending line and column."""
    lines = _read_text(path).splitlines()
    start = 1 if header else 0
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


def _make_dataset(X, y) -> Dataset:
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
        raise InputError(str(exc)) from exc


def _penalty_from_args(args) -> ElasticNet:
    try:
        return ElasticNet(lam=args.lam, tau=args.tau)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _options_from_args(args) -> FitOptions:
    try:
        return FitOptions(
            max_iterations=args.max_iterations,
            kkt_tolerance=args.kkt_tolerance,
            intercept=getattr(args, "intercept", False),
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _loss_doc(loss) -> dict:
    if isinstance(loss, HuberLoss):
        return {"kind": "huber", "huber_scale": loss.scale}
    return {"kind": "square"}


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


def write_report(doc: dict, out) -> None:
    text = json.dumps(_json_safe(doc), indent=2, allow_nan=False) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    X = read_matrix_csv(args.design, args.header)
    y = read_response_csv(args.response, args.header)
    data = _make_dataset(X, y)
    loss = _loss_from_args(args)
    penalty = _penalty_from_args(args)
    options = _options_from_args(args)

    exit_code = EXIT_OK
    try:
        result = fit(data, loss, penalty, options)
    except NonConvergence as exc:
        result = exc.result
        exit_code = EXIT_NUMERICAL
        print(f"warning: {exc}", file=sys.stderr)
    bundle = sensitivity_closed_form(data, loss, penalty, result)
    report = crit_adaptive(result, bundle, loss, eta=args.eta)

    doc = {
        "command": "fit",
        "n": data.n,
        "p": data.p,
        "loss": _loss_doc(loss),
        "penalty": _penalty_doc(penalty),
        "with_intercept": result.with_intercept,
        "intercept": result.intercept_hat if result.with_intercept else None,
        "beta_hat": result.beta_hat,
        "residuals": result.residuals,
        "active_set": result.active_set,
        "iterations": result.iterations,
        "converged": result.converged,
        "kkt_residual": result.kkt_residual,
        "objective": result.objective,
        "sensitivity": {
            "df": bundle.df,
            "trace_v": bundle.trace_V,
            "n_hat": bundle.n_hat,
            "p_hat": bundle.p_hat,
            "tau_eff": bundle.tau_eff,
        },
        "criterion": {
            "crit_adaptive": report.crit_adaptive,
            "ratio": report.ratio,
            "constraint_value": report.constraint_value,
            "constraint_ok": report.constraint_ok,
            "eta": report.eta,
            "crit_defined": report.crit_defined,
        },
    }
    write_report(doc, args.out)
    if args.beta_out is not None:
        write_csv(args.beta_out, None, ((b,) for b in result.beta_hat))
    return exit_code


def cmd_select(args) -> int:
    X = read_matrix_csv(args.design, args.header)
    y = read_response_csv(args.response, args.header)
    data = _make_dataset(X, y)
    options = _options_from_args(args)
    cells = _load_grid(args.grid)
    # One power iteration for the whole grid, as in simulate. Not with an
    # intercept: fit() would loosen the hint to (n + ||X||^2) / n, which
    # costs more iterations than the per-cell power iteration it saves. A
    # zero design gets no hint, so fit() takes its own zero-design path.
    if not options.intercept:
        sig = largest_singular_value(data.X)
        if sig > 0.0:
            options = replace(options, lipschitz_bound=sig * sig / data.n)

    entries = []
    triples = []  # candidates with a usable sensitivity bundle
    back = []  # original index of each triple
    for idx, cell in enumerate(cells):
        loss = cell.loss()
        penalty = cell.penalty()
        converged = True
        try:
            result = fit(data, loss, penalty, options)
        except NonConvergence as exc:
            result = exc.result
            converged = False
        entry = {
            "index": idx,
            "loss": _loss_doc(loss),
            "penalty": _penalty_doc(penalty),
            "converged": converged,
            "iterations": result.iterations,
        }
        try:
            bundle = sensitivity_closed_form(data, loss, penalty, result)
        except SingularSystem as exc:
            entry.update(
                crit_adaptive=None,
                ratio=None,
                constraint_value=None,
                constraint_ok=False,
                crit_defined=False,
                feasible=False,
                reason=f"sensitivity system singular: {exc}",
            )
            entries.append(entry)
            continue
        rep = crit_adaptive(result, bundle, loss, eta=args.eta)
        feasible = rep.constraint_ok and rep.crit_defined
        if feasible:
            reason = None
        elif not rep.crit_defined:
            reason = "criterion undefined: trace of V is numerically zero"
        else:
            reason = (
                f"constraint value {rep.constraint_value} below eta {args.eta}"
            )
        entry.update(
            crit_adaptive=rep.crit_adaptive,
            ratio=rep.ratio,
            constraint_value=rep.constraint_value,
            constraint_ok=rep.constraint_ok,
            crit_defined=rep.crit_defined,
            feasible=feasible,
            reason=reason,
        )
        entries.append(entry)
        triples.append((result, bundle, loss))
        back.append(idx)

    selected = None
    ranking = []
    if triples:
        try:
            sel = select(triples, eta=args.eta)
            selected = back[sel.selected_index]
            ranking = [back[i] for i in sel.ranking]
        except NoFeasibleCandidate:
            pass

    doc = {
        "command": "select",
        "n": data.n,
        "p": data.p,
        "eta": args.eta,
        "selected_index": selected,
        "ranking": ranking,
        "candidates": entries,
    }
    write_report(doc, args.out)
    if selected is None:
        print(
            f"error: no candidate meets the feasibility constraint (eta={args.eta})",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.jobs < 1:
        raise InputError("--jobs must be >= 1")
    config = load_sim_config(args.config)
    options = _options_from_args(args)
    result = run_grid(config, options=options, jobs=args.jobs)
    result.to_csv(args.out)
    if args.aggregate_out is not None:
        write_aggregate_csv(result, args.aggregate_out)
    if args.pivot_dir is not None:
        pivot_dir = Path(args.pivot_dir)
        pivot_dir.mkdir(parents=True, exist_ok=True)
        for metric in GRID_METRICS:
            write_pivot_csv(result, metric, pivot_dir / f"pivot_{metric}.csv")
    n_failed = sum(1 for rec in result.records if rec.failed)
    print(
        f"wrote {len(result.records)} records ({n_failed} failed fits) to {args.out}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_diagnose(args) -> int:
    X = read_matrix_csv(args.design, args.header)
    y = read_response_csv(args.response, args.header)
    data = _make_dataset(X, y)
    loss = _loss_from_args(args)
    penalty = _penalty_from_args(args)
    options = _options_from_args(args)

    exit_code = EXIT_OK
    try:
        result = fit(data, loss, penalty, options)
    except NonConvergence as exc:
        result = exc.result
        exit_code = EXIT_NUMERICAL
        print(f"warning: {exc}", file=sys.stderr)
    bundle = sensitivity_closed_form(data, loss, penalty, result)

    if args.t_hat is not None:
        t_hat = args.t_hat
        source = "flag"
    else:
        if bundle.trace_V <= ZERO_TRACE_V_REL * data.n:
            raise DegenerateDenominator(
                "trace of V is numerically zero; pass --t-hat explicitly"
            )
        t_hat = bundle.df / bundle.trace_V
        source = "adaptive"

    rep = residual_representation_check(result, bundle, loss, t_hat=t_hat)
    u = result.residuals + t_hat * loss.psi(result.residuals)
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
        "penalty": _penalty_doc(penalty),
        "converged": result.converged,
        "t_hat": t_hat,
        "t_hat_source": source,
        "max_prox_gap": float(np.max(rep.gaps)),
        "effective_observations": float(np.sum(bundle.psi_prime_diag)),
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
    return exit_code


CHECK_TOLERANCES = {
    "jacobian_rel": 1e-3,
    "trace_abs": 1e-3,
    "contraction_abs": 1e-3,
}


def cmd_check_derivatives(args) -> int:
    if not 1 <= args.n <= 100:
        raise InputError("--n must be between 1 and 100")
    if not 1 <= args.p <= 50:
        raise InputError("--p must be between 1 and 50")
    loss = _loss_from_args(args)
    penalty = _penalty_from_args(args)
    report = run_derivative_checks(
        args.n,
        args.p,
        loss,
        penalty,
        args.seed,
        jacobian_tolerance=CHECK_TOLERANCES["jacobian_rel"],
        trace_tolerance=CHECK_TOLERANCES["trace_abs"],
        contraction_tolerance=CHECK_TOLERANCES["contraction_abs"],
        fault=args.fault,
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
    sim_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="parallel workers; each runs one BLAS thread unless "
        "OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS is set",
    )
    sim_p.add_argument("--max-iterations", type=int, default=50_000)
    sim_p.add_argument("--kkt-tolerance", type=float, default=1e-8)

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
        with thread_policy():
            return _HANDLERS[args.command](args)
    except (InputError, IllPosed) as exc:
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
