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
    fit,
    make_loss,
    select,
    sensitivity_closed_form,
)
from hubertune.cli import main
from hubertune.simulate import GRID_METRICS

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
        report = crit_adaptive(result, bundle, loss)

        assert doc["n"] == 20 and doc["p"] == 5
        assert doc["with_intercept"] is True
        assert doc["intercept"] == pytest.approx(result.intercept_hat, abs=1e-12)
        assert doc["beta_hat"] == pytest.approx(result.beta_hat, abs=1e-12)
        assert doc["active_set"] == list(result.active_set)
        assert doc["sensitivity"]["df"] == pytest.approx(bundle.df, rel=1e-12)
        assert doc["sensitivity"]["trace_v"] == pytest.approx(
            bundle.trace_V, rel=1e-12
        )
        assert doc["criterion"]["crit_adaptive"] == pytest.approx(
            report.crit_adaptive, rel=1e-12
        )
        assert doc["criterion"]["eta"] == report.eta

    def test_rerun_is_byte_identical(self, tmp_path):
        design, response, _, _ = make_regression_files(tmp_path)
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        argv = ["fit", str(design), str(response), "--tau", "0.1"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

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
        triples = []
        for cell in GRID_3:
            loss = make_loss("huber", huber_scale=cell["huber_scale"])
            penalty = ElasticNet(lam=cell["lambda"], tau=cell["tau"])
            result = fit(data, loss, penalty, FitOptions())
            bundle = sensitivity_closed_form(data, loss, penalty, result)
            triples.append((result, bundle, loss))
        sel = select(triples)

        assert doc["selected_index"] == sel.selected_index
        assert doc["ranking"] == list(sel.ranking)
        assert len(doc["candidates"]) == len(GRID_3)
        for entry, report in zip(doc["candidates"], sel.reports):
            assert entry["crit_adaptive"] == pytest.approx(
                report.crit_adaptive, rel=1e-12
            )
            assert entry["feasible"] == (report.constraint_ok and report.crit_defined)

    @pytest.mark.parametrize("intercept", [False, True])
    def test_grid_shares_one_power_iteration_without_an_intercept(
        self, tmp_path, monkeypatch, intercept
    ):
        import hubertune.cli
        import hubertune.solver

        calls = []
        original = hubertune.solver.largest_singular_value

        def counted(X):
            calls.append(X.shape)
            return original(X)

        monkeypatch.setattr(hubertune.cli, "largest_singular_value", counted)
        monkeypatch.setattr(hubertune.solver, "largest_singular_value", counted)
        design, response, X, y = make_regression_files(tmp_path, n=40, p=6, seed=3)
        grid = write_grid(tmp_path)
        out = tmp_path / "selection.json"
        argv = ["select", str(design), str(response), str(grid), "--out", str(out)]
        assert main(argv + (["--intercept"] if intercept else [])) == 0
        # With an intercept each fit bounds its own [1 X] design.
        assert len(calls) == (len(GRID_3) if intercept else 1)

        # The shared bound equals the one each fit computes alone, so the
        # iterates, and hence the iteration counts, are the same.
        monkeypatch.undo()
        data = Dataset(X, y)
        for entry, cell in zip(read_json(out)["candidates"], GRID_3):
            loss = make_loss("huber", huber_scale=cell["huber_scale"])
            penalty = ElasticNet(lam=cell["lambda"], tau=cell["tau"])
            result = fit(data, loss, penalty, FitOptions(intercept=intercept))
            assert entry["iterations"] == result.iterations

    def test_all_infeasible_exits_3_but_still_writes_report(self, tmp_path, capsys):
        design, response, _, _ = make_regression_files(tmp_path)
        grid = write_grid(tmp_path)
        out = tmp_path / "selection.json"
        code = main(
            [
                "select",
                str(design),
                str(response),
                str(grid),
                "--eta",
                "1.1",
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

    def test_grid_cell_with_unknown_key_is_an_input_error(self, tmp_path, capsys):
        design, response, _, _ = make_regression_files(tmp_path)
        cells = [{"huber_scale": 1.0, "lambda": 0.1, "tau": 0.1, "gamma": 2.0}]
        grid = write_grid(tmp_path, cells=cells)
        assert main(["select", str(design), str(response), str(grid)]) == 1
        assert "gamma" in capsys.readouterr().err


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
        for metric in GRID_METRICS:
            pivot = pivots / f"pivot_{metric}.csv"
            assert pivot.exists(), metric
            assert pivot.read_text().startswith("lambda,")

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
        assert "nope.json" in capsys.readouterr().err

    def test_config_with_unknown_field_is_an_input_error(self, tmp_path, capsys):
        doc = sim_config_doc()
        doc["replicates"] = doc.pop("replications")
        config = write_sim_config(tmp_path, doc)
        out = tmp_path / "records.csv"
        assert main(["simulate", str(config), "--out", str(out)]) == 1
        assert "replicates" in capsys.readouterr().err

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
