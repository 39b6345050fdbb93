"""Per-layer spans for one `hubertune` CLI call, recorded from outside `src/`.

Run as

    python3 perfbench/tracing.py SPANS_DIR <hubertune arguments...>

with `src` on PYTHONPATH. The launcher wraps the public functions of each
layer module, rebinds every alias other hubertune modules imported of them
(`cli`, `simulate` and `sensitivity` each bind `fit` at import time), and
then calls `hubertune.cli.main`, exactly as the `hubertune` script does.

A span records its name, start, end, parent span and a few counters. Spans
stay in memory and are written to SPANS_DIR/spans-<pid>.json when the
process ends: by the launcher after `main` returns, and by a
multiprocessing finalizer in every forked `simulate --jobs` worker.

`layer_metrics` turns the span files of one call into per-layer self times
and counts. A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import statistics
import sys
import time
from pathlib import Path

# Public functions timed per layer module. losses, penalties and data run
# inside the solver's inner loop, where a wrapper would distort the
# iteration cost, so they are not wrapped.
LAYERS = {
    "cli": ("read_matrix_csv", "write_report"),
    "solver": ("fit", "largest_singular_value"),
    "sensitivity": (
        "sensitivity_closed_form",
        "jacobian_y",
        "sensitivity_fd_oracle",
        "contraction_check",
        "run_derivative_checks",
        "trace_sigma_A",
    ),
    "criterion": ("crit_adaptive", "select", "crit_oracle_sigma", "out_of_sample_error"),
    "simulate": ("make_covariance", "generate", "run_grid", "aggregate", "pivot_table"),
    "formatting": ("write_csv",),
}

MAIN_SPAN = "cli.main"
IMPORT_SPAN = "process.import"


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _fit_counters(args, kwargs, result, exc):
    if exc is None:
        return {"iterations": result.iterations, "nonconverged": 0}
    # hubertune is importable only in the launcher, not where spans are read.
    from hubertune.errors import NonConvergence
    from hubertune.solver import FitOptions

    if isinstance(exc, NonConvergence):
        options = _arg(args, kwargs, 3, "options") or FitOptions()
        return {"iterations": options.max_iterations, "nonconverged": 1}
    return {}


def _sensitivity_counters(args, kwargs, result, exc):
    data = _arg(args, kwargs, 0, "data")
    loss = _arg(args, kwargs, 1, "loss")
    fit_result = _arg(args, kwargs, 3, "fit_result")
    p_hat = int(fit_result.active_set.size)
    if exc is None:
        n_hat = result.n_hat
    else:
        n_hat = float(loss.psi_prime(fit_result.residuals).sum())
    return {
        "p_hat_sum": p_hat,
        "p_hat_gt_n_hat": int(p_hat > n_hat),
        "flops_computed": 2 * data.n * p_hat**2 + p_hat**3,
        "singular": int(exc is not None),
    }


def _file_bytes(path):
    return {"bytes": os.path.getsize(path) if path is not None else 0}


COUNTERS = {
    "solver.fit": _fit_counters,
    "sensitivity.sensitivity_closed_form": _sensitivity_counters,
    "cli.read_matrix_csv": lambda a, k, r, e: {"values": 0 if r is None else int(r.size)},
    "cli.write_report": lambda a, k, r, e: _file_bytes(_arg(a, k, 1, "out")),
    "formatting.write_csv": lambda a, k, r, e: _file_bytes(_arg(a, k, 0, "path")),
}


class Tracer:
    """In-memory span list of one process; spans are [name, start, end, parent, counters]."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.spans = []
        self.stack = []

    def wrap(self, name, fn):
        counters = COUNTERS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if counters is not None:
                    span[4] = counters(args, kwargs, result, exc)

        return traced

    def install(self):
        """Wrap every function in LAYERS and rebind each alias of it."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "hubertune"]
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"hubertune.{layer}")
            for fn_name in names:
                original = getattr(module, fn_name)
                traced = self.wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)

    def after_fork(self):
        # A forked worker starts with the parent's spans; it keeps only its own.
        self.spans.clear()
        self.stack.clear()
        multiprocessing.util.Finalize(None, self.dump, exitpriority=100)

    def dump(self):
        path = self.out_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps({"pid": os.getpid(), "spans": self.spans}))


def launch(argv) -> int:
    out_dir, cli_args = Path(argv[0]), list(argv[1:])
    start = time.perf_counter()
    import hubertune.cli

    tracer = Tracer(out_dir)
    tracer.spans.append([IMPORT_SPAN, start, time.perf_counter(), -1, None])
    tracer.install()
    multiprocessing.util.register_after_fork(tracer, Tracer.after_fork)
    main = tracer.wrap(MAIN_SPAN, hubertune.cli.main)
    try:
        return main(cli_args)
    finally:
        tracer.dump()


# ---------------------------------------------------------------------------
# Analysis of the span files of one call
# ---------------------------------------------------------------------------

TIMED = [f"{layer}.{fn}" for layer, names in LAYERS.items() for fn in names]
CALLS = ("solver.fit", "solver.largest_singular_value",
         "sensitivity.sensitivity_closed_form", "simulate.make_covariance")
# Span counters summed over the call, named <span>.<counter>.
SUMMED = (
    "solver.fit.iterations",
    "solver.fit.nonconverged",
    "sensitivity.sensitivity_closed_form.p_hat_sum",
    "sensitivity.sensitivity_closed_form.p_hat_gt_n_hat",
    "sensitivity.sensitivity_closed_form.flops_computed",
    "sensitivity.sensitivity_closed_form.singular",
    "cli.read_matrix_csv.values",
    "cli.write_report.bytes",
    "formatting.write_csv.bytes",
)


def load_spans(out_dir: Path):
    """[(pid, spans)] with the launcher's process first."""
    docs = [json.loads(p.read_text()) for p in sorted(Path(out_dir).glob("spans-*.json"))]
    docs.sort(key=lambda d: 0 if any(s[0] == MAIN_SPAN for s in d["spans"]) else 1)
    return [(d["pid"], d["spans"]) for d in docs]


def self_times(spans):
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[k] for k, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(processes) -> dict:
    """Per-call layer metrics: self seconds, call counts and counters.

    Self times are summed over every process of the call, so under
    `--jobs 2` a layer's seconds are busy time across both workers.
    `trace.accounted_s` sums the launcher process alone: its import time
    plus the self time of every span in it, which covers the call's wall
    time apart from interpreter start-up and exit.
    """
    selfs = dict.fromkeys(TIMED + [MAIN_SPAN, IMPORT_SPAN], 0.0)
    calls = dict.fromkeys(CALLS, 0)
    sums = dict.fromkeys(SUMMED, 0)
    accounted = 0.0
    for k, (_, spans) in enumerate(processes):
        for (name, _, _, _, counters), own in zip(spans, self_times(spans)):
            if k == 0:
                accounted += own
            selfs[name] += own
            if name in calls:
                calls[name] += 1
            for key, value in (counters or {}).items():
                sums[f"{name}.{key}"] += value

    m = {f"layer.{layer}.s": sum(selfs[f"{layer}.{fn}"] for fn in names)
         for layer, names in LAYERS.items()}
    m[f"{MAIN_SPAN}.s"] = selfs[MAIN_SPAN]
    m.update({f"{name}.s": selfs[name] for name in TIMED})
    m.update({f"{name}.calls": calls[name] for name in CALLS})
    m.update(sums)
    iterations = sums["solver.fit.iterations"]
    m["solver.fit.us_per_iteration"] = 1e6 * selfs["solver.fit"] / iterations if iterations else 0.0
    m["process.import_s"] = selfs[IMPORT_SPAN]
    m["trace.accounted_s"] = accounted
    return m


def unit(metric: str) -> str:
    if metric.endswith(".us_per_iteration"):
        return "us"
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith(".flops_computed"):
        return "flop"
    return "count"


def median_metrics(per_call) -> dict:
    """Median of each metric over the traced calls of one run."""
    return {key: statistics.median(c[key] for c in per_call) for key in per_call[0]}


if __name__ == "__main__":
    sys.exit(launch(sys.argv[1:]))
