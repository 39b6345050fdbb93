"""End-to-end tests for the command-line interface.

Every test calls ``hubertune.cli.main`` in-process with an argv list and
inspects the returned exit code, the files written, and captured output.
JSON reports are validated against the schemas shipped inside the package,
and numeric content is cross-checked against the library API on the same
inputs. Fixtures are tiny so the whole module runs in a few seconds.
"""

import json
import math
from importlib import resources

import jsonschema
import numpy as np
import pytest

from hubertune import (
    Dataset,
    ElasticNet,
    FitOptions,
    crit_adaptive,
    evaluate,
    fit,
    make_loss,
    normal_summary,
    residual_representation_check,
    run_derivative_checks,
    select,
    sensitivity_closed_form,
)
import hubertune.cli
from hubertune.cli import _parse_fields, main, read_matrix_csv
from hubertune.criterion import DEFAULT_ETA
from hubertune.simulate import GRID_METRICS, parse_sim_config

from oracles import kkt_residual

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def write_matrix(path, array) -> None:
    array = np.asarray(array, dtype=float)
    if array.ndim == 1:
        array = array.reshape(-1, 1)
    lines = [",".join(repr(float(v)) for v in row) for row in array]
    path.write_text("\n".join(lines) + "\n")


def make_regression_files(tmp_path, n=20, p=5, seed=0, noise=0.1):
    """Write a small seeded regression problem; return paths and arrays."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[0] = 1.0
    beta[1] = -0.5
    y = X @ beta + noise * rng.standard_normal(n)
    design = tmp_path / "design.csv"
    response = tmp_path / "response.csv"
    write_matrix(design, X)
    write_matrix(response, y)
    return design, response, X, y


def load_schema(name: str) -> dict:
    text = (resources.files("hubertune") / "schemas" / name).read_text()
    return json.loads(text)


def validate(doc: dict, schema_name: str) -> None:
    jsonschema.validate(doc, load_schema(schema_name))


def read_json(path) -> dict:
    return json.loads(path.read_text())


def sim_config_doc(replications=3):
    """A small two-cell simulation config matching the shipped schema."""
    return {
        "n": 30,
        "p": 10,
        "replications": replications,
        "base_seed": 42,
        "sigma_seed": 7,
        "noise_kind": {"kind": "gaussian", "sigma": 1.0},
        "signal_kind": "sparse",
        "grid": [
            {"huber_scale": 1.5, "lambda": 0.05, "tau": 0.05},
            {"huber_scale": None, "lambda": 0.0, "tau": 0.1},
        ],
    }


def write_sim_config(tmp_path, doc=None):
    doc = sim_config_doc() if doc is None else doc
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


GRID_3 = [
    {"huber_scale": 1.0, "lambda": 0.02, "tau": 0.05},
    {"huber_scale": 1.0, "lambda": 0.1, "tau": 0.05},
    {"huber_scale": 1.0, "lambda": 0.5, "tau": 0.05},
]


def write_grid(tmp_path, cells=None, name="grid.json"):
    path = tmp_path / name
    path.write_text(json.dumps(GRID_3 if cells is None else cells))
    return path


# Raw JSON text for a number field, each of which parsing must refuse.
MALFORMED_NUMBERS = {
    "string": '"0.1x"',
    "null": "null",
    "nan": "NaN",
    "infinity": "-Infinity",
    "overflow": "1e999",
    "bool": "true",
}


def with_raw_value(doc, text) -> str:
    """doc as JSON text with its one "@" placeholder replaced by raw text."""
    dumped = json.dumps(doc)
    assert dumped.count('"@"') == 1
    return dumped.replace('"@"', text)


def assert_input_error_names(capsys, *parts) -> None:
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    for part in parts:
        assert part in err


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class TestParsing:
    def test_no_subcommand_exits_with_input_code(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 1

    def test_unknown_subcommand_exits_with_input_code(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 1

    def test_unknown_flag_exits_with_input_code(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fit", "x.csv", "y.csv", "--bogus"])
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "hubertune" in err

    def test_bad_loss_choice_exits_with_input_code(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["fit", "x.csv", "y.csv", "--loss", "cauchy"])
        assert excinfo.value.code == 1

    def test_non_numeric_flag_value_exits_with_input_code(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["fit", "x.csv", "y.csv", "--lambda", "lots"])
        assert excinfo.value.code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "x.csv", "y.csv"],
            ["select", "x.csv", "y.csv", "grid.json"],
            ["simulate", "config.json", "--out", "records.csv"],
            ["diagnose", "x.csv", "y.csv"],
        ],
    )
    def test_solver_flag_defaults_are_fit_options(self, argv):
        args = hubertune.cli.build_parser().parse_args(argv)
        defaults = FitOptions()
        assert args.max_iterations == defaults.max_iterations
        assert args.kkt_tolerance == defaults.kkt_tolerance


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


class TestFit:
    def test_scalar_ridge_recovers_half(self, tmp_path, capsys):
        """Square loss, x = y = 1, tau = 1: minimizer of
        0.5*(1-b)^2 + 0.5*b^2 is exactly b = 1/2."""
        design = tmp_path / "x.csv"
        response = tmp_path / "y.csv"
        design.write_text("1.0\n")
        response.write_text("1.0\n")
        code = main(
            ["fit", str(design), str(response), "--loss", "square", "--tau", "1.0"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["beta_hat"] == pytest.approx([0.5], abs=1e-7)
        assert doc["converged"] is True
        assert doc["penalty"] == {"lambda": 0.0, "tau": 1.0}

    def test_report_matches_schema_and_library(self, tmp_path):
        design, response, X, y = make_regression_files(tmp_path)
        out = tmp_path / "report.json"
        code = main(
            [
                "fit",
                str(design),
                str(response),
                "--loss",
                "huber",
                "--huber-scale",
                "1.3",
                "--lambda",
                "0.05",
                "--tau",
                "0.02",
                "--intercept",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = read_json(out)
        validate(doc, "fit_report.schema.json")

        data = Dataset(X, y)
        loss = make_loss("huber", huber_scale=1.3)
        penalty = ElasticNet(lam=0.05, tau=0.02)
        result = fit(data, loss, penalty, FitOptions(intercept=True))
        bundle = sensitivity_closed_form(data, loss, penalty, result)
        crit = crit_adaptive(result, bundle, loss)

        assert doc["n"] == 20 and doc["p"] == 5
        assert doc["with_intercept"] is True
        assert doc["intercept"] == pytest.approx(result.intercept_hat, abs=1e-12)
        assert doc["beta_hat"] == pytest.approx(result.beta_hat, abs=1e-12)
        assert doc["active_set"] == list(result.active_set)
        assert doc["sensitivity"]["df"] == pytest.approx(bundle.df, rel=1e-12)
        assert doc["sensitivity"]["trace_v"] == pytest.approx(
            bundle.trace_V, rel=1e-12
        )
        assert doc["criterion"]["crit_adaptive"] == pytest.approx(crit, rel=1e-12)
        assert doc["criterion"]["eta"] == DEFAULT_ETA

    @pytest.mark.parametrize("intercept", [False, True])
    def test_lasso_report_gives_the_rank_as_df(self, tmp_path, intercept):
        """At tau = 0 the report validates with tau_eff = 0, and df is the
        number of active coefficients, a unique lasso fit's rank."""
        design, response, _, _ = make_regression_files(tmp_path)
        out = tmp_path / "report.json"
        argv = ["fit", str(design), str(response), "--lambda", "0.05"]
        argv += ["--out", str(out)] + (["--intercept"] if intercept else [])
        assert main(argv) == 0
        doc = read_json(out)
        validate(doc, "fit_report.schema.json")
        sens = doc["sensitivity"]
        assert sens["tau_eff"] == 0.0
        assert sens["df"] == sens["p_hat"] == len(doc["active_set"]) > 0
        assert sens["trace_v"] == sens["n_hat"] - sens["df"]

    def test_rerun_is_byte_identical(self, tmp_path):
        design, response, _, _ = make_regression_files(tmp_path)
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        argv = ["fit", str(design), str(response), "--tau", "0.1"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_dual_side_fit_keeps_the_factored_system_out_of_the_report(
        self, tmp_path
    ):
        """p_hat > n_hat: the bundle says "dual", the report does not."""
        design, response, X, y = make_regression_files(tmp_path, n=20, p=40)
        argv = ["fit", str(design), str(response), "--loss", "square"]
        argv += ["--lambda", "0.005", "--tau", "0.05"]
        data, penalty = Dataset(X, y), ElasticNet(lam=0.005, tau=0.05)
        result = fit(data, make_loss("square"), penalty, FitOptions())
        bundle = sensitivity_closed_form(data, make_loss("square"), penalty, result)
        assert bundle.system == "dual"
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            assert main(argv + ["--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        doc = read_json(outs[0])
        validate(doc, "fit_report.schema.json")
        assert set(doc["sensitivity"]) == {"df", "trace_v", "n_hat", "p_hat", "tau_eff"}
        assert doc["sensitivity"]["df"] == pytest.approx(bundle.df, rel=1e-12)

    def test_beta_out_writes_one_column_csv(self, tmp_path):
        design, response, _, _ = make_regression_files(tmp_path, p=4)
        out = tmp_path / "report.json"
        beta_out = tmp_path / "beta.csv"
        code = main(
            [
                "fit",
                str(design),
                str(response),
                "--tau",
                "0.1",
                "--out",
                str(out),
                "--beta-out",
                str(beta_out),
            ]
        )
        assert code == 0
        lines = beta_out.read_text().strip().splitlines()
        assert len(lines) == 4
        values = [float(line) for line in lines]
        assert values == pytest.approx(read_json(out)["beta_hat"], abs=1e-15)

    def test_header_flag_skips_first_row(self, tmp_path, capsys):
        design, response, X, y = make_regression_files(tmp_path, n=10, p=3)
        headered_design = tmp_path / "hdesign.csv"
        headered_response = tmp_path / "hresponse.csv"
        headered_design.write_text("a,b,c\n" + design.read_text())
        headered_response.write_text("y\n" + response.read_text())

        base = ["--loss", "square", "--tau", "0.5"]
        assert main(["fit", str(design), str(response)] + base) == 0
        plain = json.loads(capsys.readouterr().out)
        argv = ["fit", str(headered_design), str(headered_response), "--header"]
        assert main(argv + base) == 0
        headered = json.loads(capsys.readouterr().out)
        assert headered["beta_hat"] == plain["beta_hat"]

    def test_header_row_without_flag_is_an_input_error(self, tmp_path, capsys):
        design, response, _, _ = make_regression_files(tmp_path, n=10, p=3)
        headered = tmp_path / "hdesign.csv"
        headered.write_text("a,b,c\n" + design.read_text())
        code = main(["fit", str(headered), str(response), "--tau", "0.1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 1" in err
        assert "not a number" in err

    def test_missing_design_file_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        response = tmp_path / "y.csv"
        response.write_text("1.0\n")
        code = main(["fit", str(missing), str(response)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "nope.csv" in err

    def test_ragged_csv_names_line(self, tmp_path, capsys):
        design = tmp_path / "x.csv"
        response = tmp_path / "y.csv"
        design.write_text("1.0,2.0\n3.0\n")
        response.write_text("1.0\n2.0\n")
        assert main(["fit", str(design), str(response)]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err
        assert "expected 2 fields" in err

    def test_empty_csv_is_an_input_error(self, tmp_path, capsys):
        design = tmp_path / "x.csv"
        response = tmp_path / "y.csv"
        design.write_text("\n")
        response.write_text("1.0\n")
        assert main(["fit", str(design), str(response)]) == 1
        assert "no data rows" in capsys.readouterr().err

    def test_multi_column_response_is_an_input_error(self, tmp_path, capsys):
        design = tmp_path / "x.csv"
        response = tmp_path / "y.csv"
        design.write_text("1.0\n2.0\n")
        response.write_text("1.0,2.0\n3.0,4.0\n")
        assert main(["fit", str(design), str(response)]) == 1
        assert "exactly one column" in capsys.readouterr().err

    def test_mismatched_row_counts_is_an_input_error(self, tmp_path, capsys):
        design = tmp_path / "x.csv"
        response = tmp_path / "y.csv"
        write_matrix(design, np.eye(3))
        write_matrix(response, np.ones(2))
        assert main(["fit", str(design), str(response)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_nan_in_design_is_an_input_error(self, tmp_path, capsys):
        design, response, X, _ = make_regression_files(tmp_path)
        X[3, 2] = np.nan
        write_matrix(design, X)
        assert main(["fit", str(design), str(response)]) == 1
        assert_input_error_names(capsys, "invalid inputs", "non-finite")

    def test_negative_lambda_is_an_input_error(self, tmp_path):
        design, response, _, _ = make_regression_files(tmp_path, n=5, p=2)
        assert main(["fit", str(design), str(response), "--lambda", "-1"]) == 1

    def test_unpenalized_wide_problem_is_ill_posed(self, tmp_path, capsys):
        design, response, _, _ = make_regression_files(tmp_path, n=4, p=6)
        code = main(
            ["fit", str(design), str(response), "--lambda", "0", "--tau", "0"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unpenalized_fit_with_intercept_at_p_equal_n_is_ill_posed(
        self, tmp_path, capsys
    ):
        design, response, _, _ = make_regression_files(tmp_path, n=5, p=5)
        argv = ["fit", str(design), str(response), "--loss", "square"]
        argv += ["--lambda", "0", "--tau", "0"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--intercept"]) == 1
        assert_input_error_names(capsys, "p + 1 (6) > n (5)")

    def test_rows_summing_to_zero_are_fitted(self, tmp_path, capsys):
        """Rows (k, -k), y = 2k: once reported converged at beta = 0 with a
        KKT residual of 14.9."""
        k = np.arange(1.0, 5.0)
        data = Dataset(np.column_stack([k, -k]), 2.0 * k)
        design, response = tmp_path / "zx.csv", tmp_path / "zy.csv"
        write_matrix(design, data.X)
        write_matrix(response, data.y)
        argv = ["fit", str(design), str(response), "--loss", "square"]
        assert main(argv + ["--lambda", "0.1", "--tau", "0.1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is True
        beta = np.array(doc["beta_hat"])
        penalty = ElasticNet(lam=0.1, tau=0.1)
        assert kkt_residual(data, make_loss("square"), penalty, beta) <= 1e-8

    def test_nonconvergence_exits_numerical_with_partial_report(
        self, tmp_path, capsys
    ):
        design, response, _, _ = make_regression_files(tmp_path)
        out = tmp_path / "report.json"
        code = main(
            [
                "fit",
                str(design),
                str(response),
                "--tau",
                "0.1",
                "--max-iterations",
                "1",
                "--kkt-tolerance",
                "1e-14",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        assert "warning:" in capsys.readouterr().err
        doc = read_json(out)
        validate(doc, "fit_report.schema.json")
        assert doc["converged"] is False
        assert doc["iterations"] == 1


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


class TestCsvReader:
    """numpy's parser and the per-field loop read the same arrays, bit for bit."""

    @staticmethod
    def loop(path, header=False):
        return _parse_fields(path, path.read_text().splitlines(), 1 if header else 0)

    @staticmethod
    def same(a, b):
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_full_precision_values_take_the_numpy_parser(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((40, 7)) * 10.0 ** rng.integers(-30, 30, size=(40, 7))
        X[0, :2] = [0.0, -0.0]
        path = tmp_path / "x.csv"
        path.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in X))
        expected = self.loop(path)
        assert self.same(expected, X)

        def refuse(*args):
            raise AssertionError("fell back to the per-field loop")

        monkeypatch.setattr(hubertune.cli, "_parse_fields", refuse)
        assert self.same(read_matrix_csv(path), expected)

    @pytest.mark.parametrize(
        "text, header, expected",
        [
            ("a,b\n1,2\n3,4\n", True, [[1.0, 2.0], [3.0, 4.0]]),
            ("1,2\n\n3,4\n", False, [[1.0, 2.0], [3.0, 4.0]]),
            ("1,2\n  \n3,4\n", False, [[1.0, 2.0], [3.0, 4.0]]),
            ("1\n \t\n2\n", False, [[1.0], [2.0]]),
            ("+1, 2 \n", False, [[1.0, 2.0]]),
            ("inf,-inf\n", False, [[math.inf, -math.inf]]),
            ("1_0,2\n", False, [[10.0, 2.0]]),
        ],
        ids=["header", "blank", "whitespace", "whitespace-1col", "plus", "inf", "underscore"],
    )
    def test_edge_inputs_match_the_loop(self, tmp_path, text, header, expected):
        path = tmp_path / "x.csv"
        path.write_text(text)
        got = read_matrix_csv(path, header)
        assert self.same(got, self.loop(path, header))
        assert self.same(got, np.array(expected))


class TestSelect:
    def test_selection_matches_library(self, tmp_path):
        design, response, X, y = make_regression_files(tmp_path, n=40, p=6, seed=3)
        grid = write_grid(tmp_path)
        out = tmp_path / "selection.json"
        code = main(["select", str(design), str(response), str(grid), "--out", str(out)])
        assert code == 0
        doc = read_json(out)
        validate(doc, "select_report.schema.json")

        data = Dataset(X, y)
        candidates = []
        for cell in GRID_3:
            loss = make_loss("huber", huber_scale=cell["huber_scale"])
            penalty = ElasticNet(lam=cell["lambda"], tau=cell["tau"])
            candidates.append(evaluate(data, loss, penalty, FitOptions()))
        ranking = select(candidates)

        assert doc["selected_index"] == ranking[0]
        assert doc["ranking"] == list(ranking)
        assert len(doc["candidates"]) == len(GRID_3)
        for entry, cand in zip(doc["candidates"], candidates):
            assert entry["crit_adaptive"] == pytest.approx(
                cand.crit_adaptive, rel=1e-12
            )
            assert entry["feasible"] == (cand.constraint_ok and cand.crit_defined)

    @pytest.mark.parametrize("intercept", [False, True])
    def test_grid_shares_one_power_iteration(
        self, tmp_path, monkeypatch, step_bounds, intercept
    ):
        design, response, X, y = make_regression_files(tmp_path, n=40, p=6, seed=3)
        grid = write_grid(tmp_path)
        out = tmp_path / "selection.json"
        argv = ["select", str(design), str(response), str(grid), "--out", str(out)]
        assert main(argv + (["--intercept"] if intercept else [])) == 0
        # One bound per grid, of [1 X] when an intercept is fitted.
        assert step_bounds == [(40, 7 if intercept else 6)]

        # The shared bound equals the one each fit computes alone, so the
        # iterates, and hence the iteration counts, are the same.
        monkeypatch.undo()
        data = Dataset(X, y)
        for entry, cell in zip(read_json(out)["candidates"], GRID_3):
            loss = make_loss("huber", huber_scale=cell["huber_scale"])
            penalty = ElasticNet(lam=cell["lambda"], tau=cell["tau"])
            result = fit(data, loss, penalty, FitOptions(intercept=intercept))
            assert entry["iterations"] == result.iterations

    @pytest.mark.parametrize("intercept", [False, True])
    def test_one_cell_entry_equals_the_fit_criterion_block(self, tmp_path, intercept):
        design, response, _, _ = make_regression_files(tmp_path, n=40, p=6, seed=3)
        cell = GRID_3[0]
        grid = write_grid(tmp_path, [cell])
        flag = ["--intercept"] if intercept else []
        fit_out, sel_out = tmp_path / "fit.json", tmp_path / "selection.json"
        fit_argv = [
            "fit", str(design), str(response), "--huber-scale", str(cell["huber_scale"]),
            "--lambda", str(cell["lambda"]), "--tau", str(cell["tau"]), "--eta", "0.3",
        ]
        assert main(fit_argv + flag + ["--out", str(fit_out)]) == 0
        sel_argv = ["select", str(design), str(response), str(grid), "--eta", "0.3"]
        assert main(sel_argv + flag + ["--out", str(sel_out)]) == 0
        fit_doc, (entry,) = read_json(fit_out), read_json(sel_out)["candidates"]
        block = dict(fit_doc["criterion"])
        assert block.pop("eta") == 0.3
        assert {k: entry[k] for k in block} == block
        assert entry["iterations"] == fit_doc["iterations"]
        assert entry["converged"] == fit_doc["converged"]

    def test_all_infeasible_exits_3_but_still_writes_report(self, tmp_path, capsys):
        """eta = 1 needs every residual inside the Huber scale, and a scale of
        0.3 leaves some, but not all, outside on every cell."""
        design, response, _, _ = make_regression_files(tmp_path)
        grid = write_grid(tmp_path, [dict(cell, huber_scale=0.3) for cell in GRID_3])
        out = tmp_path / "selection.json"
        code = main(
            [
                "select",
                str(design),
                str(response),
                str(grid),
                "--eta",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 3
        assert "no candidate meets the feasibility constraint" in capsys.readouterr().err
        doc = read_json(out)
        validate(doc, "select_report.schema.json")
        assert doc["selected_index"] is None
        assert doc["ranking"] == []
        assert all(not entry["feasible"] for entry in doc["candidates"])
        assert all(
            "below eta" in entry["reason"] for entry in doc["candidates"]
        )

    def test_grid_wrapped_in_object_is_accepted(self, tmp_path, capsys):
        design, response, _, _ = make_regression_files(tmp_path)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"grid": GRID_3}))
        assert main(["select", str(design), str(response), str(grid)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["candidates"]) == 3

    def test_empty_grid_is_an_input_error(self, tmp_path, capsys):
        design, response, _, _ = make_regression_files(tmp_path)
        grid = write_grid(tmp_path, cells=[])
        assert main(["select", str(design), str(response), str(grid)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_grid_json_is_an_input_error(self, tmp_path, capsys):
        design, response, _, _ = make_regression_files(tmp_path)
        grid = tmp_path / "grid.json"
        grid.write_text("{not json")
        assert main(["select", str(design), str(response), str(grid)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_duplicate_cell_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        """A cell listed twice, in any spelling of its numbers, is refused
        naming both indices, before any fit."""
        import hubertune.criterion

        design, response, _, _ = make_regression_files(tmp_path)
        cells = [*GRID_3, {"huber_scale": 1, "lambda": 0.1, "tau": 5e-2}]
        grid = write_grid(tmp_path, cells=cells)
        fits = []
        monkeypatch.setattr(hubertune.criterion, "fit", lambda *a: fits.append(a))
        assert main(["select", str(design), str(response), str(grid)]) == 1
        assert_input_error_names(capsys, "grid[1] and grid[3]")
        assert fits == []

    def test_grid_cell_with_unknown_key_is_an_input_error(self, tmp_path, capsys):
        design, response, _, _ = make_regression_files(tmp_path)
        cells = [{"huber_scale": 1.0, "lambda": 0.1, "tau": 0.1, "gamma": 2.0}]
        grid = write_grid(tmp_path, cells=cells)
        assert main(["select", str(design), str(response), str(grid)]) == 1
        assert "gamma" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, field",
        [
            (kind, field)
            for kind in sorted(MALFORMED_NUMBERS)
            for field in ["huber_scale", "lambda", "tau"]
            if (kind, field) != ("null", "huber_scale")  # null: square loss
        ],
    )
    def test_malformed_grid_number_is_an_input_error(
        self, tmp_path, capsys, kind, field
    ):
        design, response, _, _ = make_regression_files(tmp_path)
        cells = [dict(GRID_3[0]), dict(GRID_3[1])]
        cells[1][field] = "@"
        grid = tmp_path / "grid.json"
        grid.write_text(with_raw_value(cells, MALFORMED_NUMBERS[kind]))
        assert main(["select", str(design), str(response), str(grid)]) == 1
        assert_input_error_names(capsys, f"grid[1]: {field}")


class TestReportKeyOrder:
    def test_blocks_list_their_schemas_required_keys_in_order(self, tmp_path):
        """fit's sensitivity and criterion blocks and every select candidate
        hold exactly their schema's required keys, in that order."""
        design, response, _, _ = make_regression_files(tmp_path, n=40, p=6, seed=3)
        inputs = [str(design), str(response)]
        fit_out, select_out = tmp_path / "fit.json", tmp_path / "select.json"
        grid = str(write_grid(tmp_path))
        assert main(["fit", *inputs, "--out", str(fit_out)]) == 0
        assert main(["select", *inputs, grid, "--out", str(select_out)]) == 0

        fit_schema = load_schema("fit_report.schema.json")
        fit_doc = read_json(fit_out)
        sensitivity = fit_schema["properties"]["sensitivity"]["required"]
        assert list(fit_doc["sensitivity"]) == sensitivity
        criterion = fit_schema["$defs"]["criterion"]["required"]
        assert list(fit_doc["criterion"]) == criterion
        candidate = load_schema("select_report.schema.json")["$defs"]["candidate"]
        entries = read_json(select_out)["candidates"]
        assert len(entries) == len(GRID_3)
        for entry in entries:
            assert list(entry) == candidate["required"]


def mixed_grid_files(tmp_path):
    """A 1e6-scaled problem and a grid of four kinds of cell at
    --max-iterations 5: square loss at lambda 1e7 stops at b = 0 on
    iteration 0 (converged) and square loss at lambda 1e4 does not converge,
    both feasible; Huber scale 1 leaves every residual outside the scale
    (criterion undefined); and a scale between the two smallest |y_i|
    leaves one inlier of 40 (constraint 0.025 below eta 0.05, a dual
    bundle)."""
    rng = np.random.default_rng(3)
    X = rng.standard_normal((40, 6))
    y = 1e6 * (X[:, 0] - 0.5 * X[:, 1] + 0.1 * rng.standard_normal(40))
    design, response = tmp_path / "design.csv", tmp_path / "response.csv"
    write_matrix(design, X)
    write_matrix(response, y)
    low = np.sort(np.abs(y))[:2]
    grid = write_grid(
        tmp_path,
        [
            {"huber_scale": None, "lambda": 1e7, "tau": 0.05},
            {"huber_scale": None, "lambda": 1e4, "tau": 0.001},
            {"huber_scale": 1.0, "lambda": 10.0, "tau": 0.05},
            {"huber_scale": float(low.mean()), "lambda": 10.0, "tau": 0.05},
        ],
    )
    return [str(design), str(response), str(grid)]


class TestSelectJobs:
    """The cells of a grid run on several processes; only wall time changes."""

    @pytest.mark.parametrize("intercept", [False, True])
    def test_reports_are_identical_across_jobs(self, tmp_path, capsys, intercept):
        argv = ["select", *mixed_grid_files(tmp_path), "--max-iterations", "5"]
        argv += ["--intercept"] if intercept else []
        runs = []
        for k, jobs in enumerate([["--jobs", "1"], ["--jobs", "2"], []]):
            out = tmp_path / f"report{k}.json"
            code = main(argv + jobs + ["--out", str(out)])
            runs.append((code, capsys.readouterr(), out.read_bytes()))
        assert runs[1] == runs[0] and runs[2] == runs[0]

        doc = json.loads(runs[0][2])
        entries = doc["candidates"]
        assert runs[0][0] == 0 and sorted(doc["ranking"]) == [0, 1]
        assert [e["converged"] for e in entries[:2]] == [True, False]
        assert entries[1]["feasible"] and entries[1]["iterations"] == 5
        assert entries[2]["reason"].startswith("criterion undefined")
        assert not any(entries[2][k] for k in ("crit_defined", "constraint_ok", "feasible"))
        assert entries[2]["ratio"] is None and entries[2]["crit_adaptive"] is None
        assert entries[3]["crit_defined"] and "below eta" in entries[3]["reason"]

    def test_ill_posed_cell_is_the_same_input_error(self, tmp_path, capsys):
        design, response, _, _ = make_regression_files(tmp_path, n=5, p=8)
        cells = [GRID_3[0], {"huber_scale": 1.0, "lambda": 0.0, "tau": 0.0}, GRID_3[1]]
        grid = write_grid(tmp_path, cells)
        out = tmp_path / "selection.json"
        argv = ["select", str(design), str(response), str(grid), "--out", str(out)]
        results = []
        for jobs in ("1", "2"):
            results.append((main(argv + ["--jobs", jobs]), capsys.readouterr()))
        assert results[1] == results[0]
        code, (_, err) = results[0]
        assert code == 1 and err.startswith("error: no penalty and p (8) > n (5)")
        assert not out.exists()

    @pytest.mark.parametrize(
        "threads, jobs", [(1, 4), (None, 4), (2, 2), (3, 1), (8, 1)]
    )
    def test_default_is_the_usable_cpus_over_the_blas_threads(
        self, monkeypatch, threads, jobs
    ):
        import hubertune.pool

        cpus = {0, 2, 5, 7}
        monkeypatch.setattr(hubertune.pool.os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(hubertune.pool, "get_threads", lambda: threads)
        assert hubertune.pool.default_jobs() == jobs

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_an_input_error(self, tmp_path, capsys, jobs):
        argv = command_argv("select", tmp_path) + ["--jobs", jobs]
        assert main(argv) == 1
        assert_input_error_names(capsys, "--jobs")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


class TestSimulate:
    def test_writes_expected_record_count(self, tmp_path, capsys):
        config = write_sim_config(tmp_path)
        out = tmp_path / "records.csv"
        code = main(["simulate", str(config), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 3 * 2  # header + replications x cells
        err = capsys.readouterr().err
        assert "wrote 6 records" in err
        assert "0 failed fits" in err

    def test_singular_cell_is_a_failed_nan_record(self, tmp_path, capsys):
        """The lasso cell (tau = 0) leaves more active coefficients than the
        8 rows of this +-1 design, so its A_hat is singular and trace[Sigma A]
        cannot be formed: each of its records is failed, with NaN in the two
        columns that read A_hat and the fit's own df, trace V, n_hat and
        p_hat, which are defined for every fit."""
        doc = sim_config_doc()
        doc.update(n=8, p=40, design_kind="rademacher")
        doc["grid"] = [
            {"huber_scale": None, "lambda": 0.05, "tau": 0.0},
            {"huber_scale": None, "lambda": 0.1, "tau": 0.1},
        ]
        config = write_sim_config(tmp_path, doc)
        out = tmp_path / "records.csv"
        assert main(["simulate", str(config), "--out", str(out)]) == 0
        assert "wrote 6 records (3 failed fits)" in capsys.readouterr().err
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        reads_a_hat = ["trace_sigma_a", "crit_oracle"]
        summary = ["df", "trace_v", "n_hat", "constraint_value"]
        for row in rows:
            assert row["huber_scale"] == ""  # the square loss
            if row["lambda"] == "0.05":
                assert row["failed"] == "true"
                assert all(row[key] == "nan" for key in reads_a_hat)
                # More active coefficients than rows, and the lasso's df is
                # the rank, at most the 8 rows; trace V is n_hat - df.
                assert int(row["p_hat"]) > 8
                df, trace_v = float(row["df"]), float(row["trace_v"])
                assert df <= 8 and trace_v == float(row["n_hat"]) - df
                assert all(math.isfinite(float(row[key])) for key in summary)
                # The criterion is undefined exactly where trace V vanishes.
                assert math.isnan(float(row["crit_adaptive"])) == (trace_v == 0)
                assert math.isfinite(float(row["oos_error"]))
                assert int(row["solver_iterations"]) > 0
            else:
                assert row["failed"] == "false"
                derived = reads_a_hat + summary + ["crit_adaptive"]
                assert all(math.isfinite(float(row[key])) for key in derived)

    def test_rerun_and_parallel_runs_are_byte_identical(self, tmp_path):
        config = write_sim_config(tmp_path)
        outs = [tmp_path / f"records{i}.csv" for i in range(3)]
        assert main(["simulate", str(config), "--out", str(outs[0])]) == 0
        assert main(["simulate", str(config), "--out", str(outs[1])]) == 0
        assert (
            main(["simulate", str(config), "--out", str(outs[2]), "--jobs", "2"]) == 0
        )
        first = outs[0].read_bytes()
        assert outs[1].read_bytes() == first
        assert outs[2].read_bytes() == first

    def test_aggregate_and_pivot_outputs(self, tmp_path):
        config = write_sim_config(tmp_path)
        out = tmp_path / "records.csv"
        agg = tmp_path / "aggregate.csv"
        pivots = tmp_path / "pivots"
        code = main(
            [
                "simulate",
                str(config),
                "--out",
                str(out),
                "--aggregate-out",
                str(agg),
                "--pivot-dir",
                str(pivots),
            ]
        )
        assert code == 0
        agg_lines = agg.read_text().strip().splitlines()
        assert len(agg_lines) == 1 + 2  # header + one row per cell
        assert agg_lines[2].startswith("0.0,0.1,,3,")  # the square loss's empty scale
        for metric in GRID_METRICS:
            pivot = pivots / f"pivot_{metric}.csv"
            assert pivot.exists(), metric
            assert pivot.read_text().startswith("lambda,")

    def test_cells_without_a_converged_fit_have_blank_statistics(self, tmp_path):
        """Three iterations certify no fit: each aggregate row keeps its
        cell and counts, and every statistic is an empty field."""
        config, agg = write_sim_config(tmp_path), tmp_path / "aggregate.csv"
        argv = ["simulate", str(config), "--out", str(tmp_path / "records.csv")]
        assert main(argv + ["--aggregate-out", str(agg), "--max-iterations", "3"]) == 0
        header, *rows = agg.read_text().splitlines()
        blanks = "," * (header.count(",") - 4)
        assert rows == ["0.05,0.05,1.5,3,3" + blanks, "0.0,0.1,,3,3" + blanks]

    def test_pivot_clash_fails_before_the_first_fit(self, tmp_path, capsys, monkeypatch):
        """Two cells at one (lambda, tau) have no one pivot entry: with
        --pivot-dir the grid is refused, naming both cells, before any fit;
        without it the same grid runs."""
        import hubertune.criterion

        doc = sim_config_doc()
        doc["grid"].append({"huber_scale": None, "lambda": 0.05, "tau": 0.05})
        config, out = write_sim_config(tmp_path, doc), tmp_path / "records.csv"
        fits = []
        monkeypatch.setattr(hubertune.criterion, "fit", lambda *a: fits.append(a))
        argv = ["simulate", str(config), "--out", str(out)]
        assert main(argv + ["--pivot-dir", str(tmp_path / "pivots")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "grid[0] and grid[2]" in err
        assert fits == [] and not out.exists()
        monkeypatch.undo()
        assert main(argv + ["--aggregate-out", str(tmp_path / "agg.csv")]) == 0
        assert len((tmp_path / "agg.csv").read_text().splitlines()) == 1 + 3

    def test_duplicate_cell_fails_before_the_first_fit(
        self, tmp_path, capsys, monkeypatch
    ):
        """A cell listed twice would be fitted twice per replication, and
        aggregate would count each replication twice."""
        import hubertune.criterion

        doc = sim_config_doc()
        doc["grid"].append(dict(doc["grid"][0]))
        config, out = write_sim_config(tmp_path, doc), tmp_path / "records.csv"
        fits = []
        monkeypatch.setattr(hubertune.criterion, "fit", lambda *a: fits.append(a))
        assert main(["simulate", str(config), "--out", str(out)]) == 1
        assert_input_error_names(capsys, "grid[0] and grid[2]")
        assert fits == [] and not out.exists()

    def test_default_jobs_equal_one_job(self, tmp_path):
        """Records, aggregate and pivots, byte for byte."""
        config = write_sim_config(tmp_path)
        trees = []
        for name, jobs in (("one", ["--jobs", "1"]), ("default", [])):
            out = tmp_path / name
            out.mkdir()
            argv = ["simulate", str(config), "--out", str(out / "records.csv")]
            argv += ["--aggregate-out", str(out / "aggregate.csv")]
            argv += ["--pivot-dir", str(out / "pivots")]
            assert main(argv + jobs) == 0
            trees.append(
                {str(f.relative_to(out)): f.read_bytes() for f in out.rglob("*.csv")}
            )
        assert len(trees[0]) == 2 + len(GRID_METRICS)
        assert trees[1] == trees[0]

    def test_jobs_below_one_is_an_input_error(self, tmp_path, capsys):
        config = write_sim_config(tmp_path)
        out = tmp_path / "records.csv"
        code = main(["simulate", str(config), "--out", str(out), "--jobs", "0"])
        assert code == 1
        assert "--jobs" in capsys.readouterr().err

    def test_missing_config_is_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        code = main(["simulate", str(tmp_path / "nope.json"), "--out", str(out)])
        assert code == 1
        assert_input_error_names(capsys, "cannot read", "nope.json")
        assert not out.exists()

    def test_config_that_is_not_json_is_an_input_error(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text("{not json")
        out = tmp_path / "records.csv"
        assert main(["simulate", str(config), "--out", str(out)]) == 1
        assert_input_error_names(capsys, "bad.json", "not valid JSON")
        assert not out.exists()

    def test_config_file_reads_as_its_document(self, tmp_path):
        config = write_sim_config(tmp_path)
        assert parse_sim_config(hubertune.cli._load_json(config)) == parse_sim_config(
            sim_config_doc()
        )

    def test_config_with_unknown_field_is_an_input_error(self, tmp_path, capsys):
        doc = sim_config_doc()
        doc["replicates"] = doc.pop("replications")
        config = write_sim_config(tmp_path, doc)
        out = tmp_path / "records.csv"
        assert main(["simulate", str(config), "--out", str(out)]) == 1
        assert "replicates" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "where, place",
        [
            ("noise_kind: sigma", lambda doc: doc["noise_kind"].update(sigma="@")),
            (
                "noise_kind: dof",
                lambda doc: doc.update(noise_kind={"kind": "student_t", "dof": "@"}),
            ),
            ("grid[0]: lambda", lambda doc: doc["grid"][0].update({"lambda": "@"})),
            (
                "signal_kind[3]",
                lambda doc: doc.update(signal_kind=[0.1] * 3 + ["@"] + [0.0] * 6),
            ),
        ],
        ids=["sigma", "dof", "lambda", "signal"],
    )
    @pytest.mark.parametrize("kind", ["string", "null", "nan", "overflow"])
    def test_malformed_config_number_is_an_input_error(
        self, tmp_path, capsys, where, place, kind
    ):
        doc = sim_config_doc()
        place(doc)
        config = tmp_path / "config.json"
        config.write_text(with_raw_value(doc, MALFORMED_NUMBERS[kind]))
        out = tmp_path / "records.csv"
        assert main(["simulate", str(config), "--out", str(out)]) == 1
        assert_input_error_names(capsys, where)

    @pytest.mark.parametrize("key", ["n", "sigma_seed", "replications"])
    @pytest.mark.parametrize(
        "text", ['"30x"', "null", "30.5", "true", "NaN"],
        ids=["string", "null", "fraction", "bool", "nan"],
    )
    def test_malformed_config_integer_is_an_input_error(
        self, tmp_path, capsys, key, text
    ):
        doc = sim_config_doc()
        doc[key] = "@"
        config = tmp_path / "config.json"
        config.write_text(with_raw_value(doc, text))
        out = tmp_path / "records.csv"
        assert main(["simulate", str(config), "--out", str(out)]) == 1
        assert_input_error_names(capsys, f"{key} must be an integer")

    def test_string_redraw_flag_is_an_input_error(self, tmp_path, capsys):
        """bool("false") is True: a string must not switch the redraw on."""
        doc = sim_config_doc()
        doc["redraw_sigma_per_replication"] = "false"
        config, out = write_sim_config(tmp_path, doc), tmp_path / "records.csv"
        assert main(["simulate", str(config), "--out", str(out)]) == 1
        assert_input_error_names(capsys, "redraw_sigma_per_replication")

    def test_negative_seed_is_an_input_error(self, tmp_path, capsys):
        doc = sim_config_doc()
        doc["base_seed"] = -1
        config, out = write_sim_config(tmp_path, doc), tmp_path / "records.csv"
        assert main(["simulate", str(config), "--out", str(out)]) == 1
        assert_input_error_names(capsys, "base_seed must be >= 0")

    def test_canonical_config_matches_shipped_schema(self):
        validate(sim_config_doc(), "sim_config.schema.json")

    def test_config_rejected_by_parser_is_rejected_by_schema(self):
        doc = sim_config_doc()
        doc["noise_kind"]["kind"] = "laplace"
        with pytest.raises(jsonschema.ValidationError):
            validate(doc, "sim_config.schema.json")


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


class TestDiagnose:
    def test_adaptive_t_hat_matches_sensitivity_ratio(self, tmp_path):
        design, response, X, y = make_regression_files(tmp_path, n=40, p=6, seed=5)
        out = tmp_path / "diag.json"
        code = main(
            [
                "diagnose",
                str(design),
                str(response),
                "--loss",
                "square",
                "--tau",
                "0.5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = read_json(out)
        validate(doc, "diagnose_report.schema.json")
        assert doc["t_hat_source"] == "adaptive"

        data = Dataset(X, y)
        loss = make_loss("square")
        penalty = ElasticNet(lam=0.0, tau=0.5)
        result = fit(data, loss, penalty, FitOptions())
        bundle = sensitivity_closed_form(data, loss, penalty, result)
        assert doc["t_hat"] == pytest.approx(bundle.df / bundle.trace_V, rel=1e-12)
        assert doc["max_prox_gap"] <= 1e-8
        assert doc["effective_observations"] == pytest.approx(
            float(np.sum(bundle.psi_prime_diag)), rel=1e-12
        )
        assert math.isfinite(doc["ks_standardized"])

    def test_t_hat_flag_overrides_adaptive_choice(self, tmp_path):
        design, response, _, _ = make_regression_files(tmp_path)
        out = tmp_path / "diag.json"
        code = main(
            [
                "diagnose",
                str(design),
                str(response),
                "--tau",
                "0.1",
                "--t-hat",
                "0.3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = read_json(out)
        assert doc["t_hat"] == 0.3
        assert doc["t_hat_source"] == "flag"

    def test_qq_and_histogram_outputs(self, tmp_path):
        design, response, _, _ = make_regression_files(tmp_path, n=25)
        out = tmp_path / "diag.json"
        qq = tmp_path / "qq.csv"
        hist = tmp_path / "hist.csv"
        code = main(
            [
                "diagnose",
                str(design),
                str(response),
                "--tau",
                "0.1",
                "--out",
                str(out),
                "--qq-out",
                str(qq),
                "--hist-out",
                str(hist),
                "--bins",
                "10",
            ]
        )
        assert code == 0
        qq_lines = qq.read_text().strip().splitlines()
        assert len(qq_lines) == 1 + 25  # header + one row per observation
        hist_lines = hist.read_text().strip().splitlines()
        assert len(hist_lines) == 1 + 10  # header + one row per bin
        counts = [int(line.split(",")[2]) for line in hist_lines[1:]]
        assert sum(counts) == 25

    def test_zero_response_has_constant_debiased_residuals(self, tmp_path, capsys):
        """y = 0 fits b = 0 with zero residuals, so u = r + t psi(r) is 0."""
        design, response, _, y = make_regression_files(tmp_path)
        write_matrix(response, np.zeros_like(y))
        out = tmp_path / "diag.json"
        code = main(["diagnose", str(design), str(response), "--tau", "0.1",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: debiased residuals are constant")
        assert not out.exists()

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 3: with an intercept a constant response fits exactly, "
        "and diagnose standardizes debiased residuals that are rounding noise "
        "(variance about 1e-16) and exits 0",
    )
    def test_constant_response_with_intercept_is_degenerate(self, tmp_path):
        """A constant response is fitted by the intercept alone, so the
        debiased residuals are zero up to the KKT tolerance: exit code 2."""
        X = np.random.default_rng(0).standard_normal((20, 4))
        design, response = tmp_path / "x.csv", tmp_path / "y.csv"
        write_matrix(design, X)
        argv = ["diagnose", str(design), str(response), "--intercept", "--tau", "0.1",
                "--out", str(tmp_path / "diag.json")]
        codes = []
        for level in (1.0, 1e6, 3.0):
            write_matrix(response, np.full(20, level))
            codes.append(main(argv))
        assert codes == [2, 2, 2]

    def test_debiased_moments_are_the_library_summary(self, tmp_path):
        """debiased_moments is normal_summary of the effective observations
        u = r + t_hat psi(r), written as the library returns it."""
        design, response, X, y = make_regression_files(tmp_path, n=30, seed=2)
        out = tmp_path / "diag.json"
        argv = ["diagnose", str(design), str(response), "--lambda", "0.05"]
        assert main(argv + ["--tau", "0.1", "--out", str(out)]) == 0
        loss = make_loss("huber", huber_scale=1.0)
        cand = evaluate(Dataset(X, y), loss, ElasticNet(lam=0.05, tau=0.1))
        _, u = residual_representation_check(cand.result, loss, cand.ratio)
        assert read_json(out)["debiased_moments"] == normal_summary(u)

    def test_all_saturated_fit_has_degenerate_denominator(self, tmp_path, capsys):
        """Huge responses saturate every Huber residual, so trace_V is zero
        and the adaptive debiasing factor is undefined: exit code 2."""
        rng = np.random.default_rng(11)
        X = rng.standard_normal((20, 3))
        y = 1e6 * np.sign(rng.standard_normal(20))
        design = tmp_path / "x.csv"
        response = tmp_path / "y.csv"
        write_matrix(design, X)
        write_matrix(response, y)
        code = main(
            [
                "diagnose",
                str(design),
                str(response),
                "--loss",
                "huber",
                "--huber-scale",
                "1.0",
                "--lambda",
                "1.0",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "--t-hat" in err


# ---------------------------------------------------------------------------
# check-derivatives
# ---------------------------------------------------------------------------


class TestCheckDerivatives:
    def test_clean_run_passes(self, tmp_path, capsys):
        out = tmp_path / "check.json"
        code = main(
            [
                "check-derivatives",
                "--n",
                "20",
                "--p",
                "6",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "all derivative checks passed" in capsys.readouterr().out
        doc = read_json(out)
        validate(doc, "check_derivatives_report.schema.json")
        assert doc["passed"] is True
        assert doc["failures"] == []
        assert doc["jacobian_rel_error"] <= doc["tolerances"]["jacobian_rel"]

    def test_fault_injection_is_detected(self, tmp_path, capsys):
        out = tmp_path / "check.json"
        code = main(
            [
                "check-derivatives",
                "--n",
                "20",
                "--p",
                "6",
                "--seed",
                "3",
                "--fault",
                "corrupt-a-hat",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        assert "FAILED" in capsys.readouterr().out
        doc = read_json(out)
        validate(doc, "check_derivatives_report.schema.json")
        assert doc["passed"] is False
        assert any("jacobian_y" in failure for failure in doc["failures"])

    @pytest.mark.parametrize(
        "flags, loss, penalty, fault",
        [
            ([], make_loss("huber", huber_scale=1.0), ElasticNet(lam=0.1, tau=0.1), None),
            (
                ["--loss", "square", "--tau", "0", "--lambda", "0.05"],
                make_loss("square"),
                ElasticNet(lam=0.05, tau=0.0),
                None,
            ),
            (
                ["--fault", "corrupt-a-hat"],
                make_loss("huber", huber_scale=1.0),
                ElasticNet(lam=0.1, tau=0.1),
                "corrupt-a-hat",
            ),
        ],
        ids=["default", "square-lasso", "fault"],
    )
    def test_report_is_its_header_and_the_library_record(
        self, tmp_path, flags, loss, penalty, fault
    ):
        """The JSON report is the command's header followed by the record
        run_derivative_checks returns for the same flags, key for key."""
        out = tmp_path / "check.json"
        argv = ["check-derivatives", "--n", "8", "--p", "3", "--seed", "1", *flags]
        main(argv + ["--out", str(out)])
        record = run_derivative_checks(8, 3, loss, penalty, 1, fault=fault)
        doc = read_json(out)
        header = ["command", "n", "p", "seed", "loss", "penalty", "fault"]
        assert list(doc) == header + list(record)
        assert doc["fault"] == fault
        as_json = json.loads(json.dumps(record, default=np.ndarray.tolist))
        assert {key: doc[key] for key in record} == as_json

    def test_one_step_bound_per_fitted_dataset(self, tmp_path, step_bounds):
        """One step bound per fixture draw, per response refit of the FD
        oracle (2 n) and per contraction refit (2 n p at each of two
        steps): each fits a Dataset of its own."""
        n, p = 8, 3
        argv = ["check-derivatives", "--n", str(n), "--p", str(p)]
        assert main(argv + ["--out", str(tmp_path / "check.json")]) == 0
        assert len(step_bounds) == 1 + 2 * n + 2 * (2 * n * p)

    def test_no_stable_fixture_is_a_numerical_error(self, capsys):
        """A Huber scale of 0.01 puts some residual near the kink in every
        draw: the run gives up after 50 fixtures with one error line on
        stderr and exit 2, not a traceback."""
        argv = ["check-derivatives", "--n", "30", "--p", "10", "--huber-scale", "0.01"]
        assert main(argv + ["--lambda", "0", "--tau", "0.01"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: no FD-stable fixture found in 50 attempts from seed 0\n"

    def test_unknown_fault_is_a_parse_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["check-derivatives", "--fault", "drop-a-row"])
        assert excinfo.value.code == 1

    @pytest.mark.parametrize(
        "flags",
        [["--n", "101"], ["--n", "0"], ["--p", "51"], ["--p", "0"]],
        ids=["n-too-big", "n-zero", "p-too-big", "p-zero"],
    )
    def test_fixture_size_caps(self, flags, capsys):
        assert main(["check-derivatives"] + flags) == 1
        assert "must be between" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Flag values and output paths
# ---------------------------------------------------------------------------


def command_argv(command, tmp_path) -> list:
    """A small run of `command` that exits 0 as given; flags appended later
    override the ones here."""
    if command == "simulate":
        config = write_sim_config(tmp_path, sim_config_doc(replications=1))
        return ["simulate", str(config), "--out", str(tmp_path / "records.csv")]
    if command == "check-derivatives":
        return ["check-derivatives", "--n", "6", "--p", "3"]
    design, response, _, _ = make_regression_files(tmp_path)
    if command == "select":
        return [command, str(design), str(response), str(write_grid(tmp_path))]
    return [command, str(design), str(response), "--tau", "0.1"]


OUTPUT_FLAGS = {
    "fit": ["--out", "--beta-out"],
    "select": ["--out"],
    "diagnose": ["--out", "--qq-out", "--hist-out"],
    "simulate": ["--out", "--aggregate-out", "--pivot-dir"],
    "check-derivatives": ["--out"],
}


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "command,flag",
        [(command, flag) for command, flags in OUTPUT_FLAGS.items() for flag in flags],
    )
    def test_exits_with_an_input_error(self, tmp_path, capsys, command, flag):
        """A path under a regular file cannot be written: exit 1, no traceback."""
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        argv = command_argv(command, tmp_path) + [flag, str(blocker / "out")]
        assert main(argv) == 1
        assert_input_error_names(capsys, str(blocker))

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("simulate", ["--out", "BLOCKER/records.csv", "--jobs", "1"]),
            ("simulate", ["--pivot-dir", "BLOCKER"]),
            ("select", ["--out", "/nonexistent/r.json"]),
            ("select", ["--out", "TMP"]),
            ("fit", ["--beta-out", "/nonexistent/b.csv"]),
            ("diagnose", ["--hist-out", "TMP"]),
        ],
        ids=[
            "under-a-file",
            "pivot-dir-a-file",
            "no-parent",
            "select-out-a-directory",
            "beta-out-no-parent",
            "hist-out-a-directory",
        ],
    )
    def test_fails_before_the_first_fit(
        self, tmp_path, capsys, monkeypatch, command, flags
    ):
        import hubertune.criterion

        fits = []
        monkeypatch.setattr(hubertune.criterion, "fit", lambda *a: fits.append(a))
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        argv = command_argv(command, tmp_path)
        for flag in flags:
            flag = flag.replace("BLOCKER", str(blocker))
            argv.append(flag.replace("TMP", str(tmp_path)))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot ") and "Traceback" not in err
        assert fits == []

    def test_a_missing_pivot_dir_is_created_only_by_the_run(self, tmp_path, capsys):
        pivots = tmp_path / "a" / "b"
        argv = command_argv("simulate", tmp_path) + ["--pivot-dir", str(pivots)]
        assert main(argv + ["--kkt-tolerance", "0"]) == 1
        assert not (tmp_path / "a").exists()
        assert main(argv) == 0
        assert len(list(pivots.iterdir())) == len(GRID_METRICS)


class TestFlagValues:
    @pytest.mark.parametrize(
        "command,flags",
        [
            ("fit", ["--eta", "nan"]),
            ("fit", ["--eta", "1.5"]),
            ("select", ["--eta", "nan"]),
            ("select", ["--eta", "-0.1"]),
            ("fit", ["--kkt-tolerance", "inf"]),
            ("select", ["--kkt-tolerance", "nan"]),
            ("simulate", ["--kkt-tolerance", "inf"]),
            ("fit", ["--max-iterations", "0"]),
            ("diagnose", ["--t-hat", "nan"]),
            ("diagnose", ["--t-hat", "inf"]),
            ("diagnose", ["--t-hat", "-0.5"]),
            ("diagnose", ["--hist-out", "HIST", "--bins", "0"]),
            ("check-derivatives", ["--seed", "-1"]),
            ("fit", ["--huber-scale", "inf"]),
            ("diagnose", ["--huber-scale", "0"]),
            ("check-derivatives", ["--lambda", "nan"]),
            ("fit", ["--tau", "-1"]),
        ],
    )
    def test_bad_value_exits_before_any_output(self, tmp_path, capsys, command, flags):
        """Exit 1 with an error naming the flag, and write nothing."""
        out, hist = tmp_path / "out", tmp_path / "hist.csv"
        argv = command_argv(command, tmp_path) + ["--out", str(out)]
        argv += [str(hist) if flag == "HIST" else flag for flag in flags]
        assert main(argv) == 1
        assert_input_error_names(capsys, flags[-2])
        assert not out.exists() and not hist.exists()

    @pytest.mark.parametrize("command", ["fit", "diagnose"])
    @pytest.mark.parametrize(
        "flags", [["--huber-scale", "-2"], ["--lambda", "inf"], ["--tau", "nan"]]
    )
    def test_bad_loss_or_penalty_is_named_before_the_design_is_read(
        self, tmp_path, capsys, command, flags
    ):
        missing = str(tmp_path / "nope.csv")
        assert main([command, missing, missing] + flags) == 1
        assert_input_error_names(capsys, flags[0])

    def test_select_reads_its_grid_before_its_design(self, tmp_path, capsys):
        """A grid cell with tau = -1 is named although the design is missing."""
        grid = write_grid(tmp_path, [{"huber_scale": None, "lambda": 0.1, "tau": -1}])
        missing = str(tmp_path / "nope.csv")
        assert main(["select", missing, missing, str(grid)]) == 1
        assert_input_error_names(capsys, "grid[0]", "tau")
