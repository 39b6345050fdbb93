"""Robust regularized regression with closed-form sensitivity analysis.

Fits the Huber loss (at scale inf, the square loss) with an elastic-net
penalty, exposes the solution's derivatives with respect to the response
(degrees of freedom, trace of the influence operator, full Jacobians), and
builds on them an observable model-selection criterion, residual
diagnostics, and a seeded Monte Carlo harness.

Names and submodules resolve on first use (PEP 562): ``import hubertune``
loads no submodule, ``hubertune.fit`` imports only what the solver needs,
and ``hubertune.blas`` imports the blas module.
"""

import importlib

__version__ = "0.1.0"

# Public names by the submodule that defines them.
_EXPORTS = {
    "criterion": (
        "Candidate",
        "crit_adaptive",
        "crit_oracle_sigma",
        "evaluate",
        "evaluate_grid",
        "out_of_sample_error",
        "select",
    ),
    "data": ("Dataset",),
    "diagnostics": (
        "histogram_table",
        "ks_normal",
        "normal_summary",
        "qq_table",
        "residual_representation_check",
        "square_loss_normality_stat",
        "zeta_statistics",
    ),
    "errors": (
        "DegenerateDenominator",
        "DegenerateFit",
        "HubertuneError",
        "IllPosed",
        "InputError",
        "NonConvergence",
        "SingularSystem",
    ),
    "losses": ("HuberLoss", "make_loss"),
    "penalties": ("ElasticNet",),
    "sensitivity": (
        "SensitivityBundle",
        "a_hat",
        "a_hat_full",
        "apply_V",
        "contraction_check",
        "jacobian_x_entry",
        "jacobian_y",
        "run_derivative_checks",
        "sensitivity_closed_form",
        "sensitivity_fd_oracle",
        "trace_sigma_A",
    ),
    "simulate": (
        "SimConfig",
        "aggregate",
        "generate",
        "make_covariance",
        "make_signal",
        "parse_grid_cells",
        "parse_sim_config",
        "run_grid",
    ),
    "solver": ("FitOptions", "FitResult", "fit", "largest_singular_value"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
# Submodules reachable as attributes (hubertune.blas, ...) without their own import.
_SUBMODULES = frozenset(_EXPORTS) | {"blas", "cli", "formatting", "pool"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f".{module}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
