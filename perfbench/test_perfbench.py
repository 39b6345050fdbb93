"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest perfbench

They check that every metric BENCHMARK.json names is reported with its
unit, that the correctness checks pass on correct output and fail on
corrupted output, and that the counters a later change may cite repeat
exactly: per-cell iterations of `select`, the `solver_iterations` column of
`simulate` across runs and `--jobs` values, and the fit count of a
derivative check.
"""

from __future__ import annotations

import csv
import json
import re
import shutil
import subprocess
import sys

import pytest

import checks
import run
import tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _metric_specs(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def _call(workload, tmp_path, jobs=2, traced=False, seed=3):
    call = workloads.prepare(workload, seed, tmp_path / "io", "smoke", jobs)[0]
    work = tmp_path / "work"
    work.mkdir(exist_ok=True)
    return call, run.run_call(call, run.child_env(), work, traced)


def _column(path, name):
    with open(path, newline="") as fh:
        return [row[name] for row in csv.DictReader(fh)]


def test_benchmark_json_follows_its_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert set(w["name"] for w in BENCHMARK["workloads"]) <= set(workloads.WORKLOADS)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in BENCHMARK["per_layer"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric_and_passes_checks(workload, trace):
    out = run.run(workload, 5, 0.0, trace, "smoke")
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out["lines"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = _metric_specs("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_select_iterations_repeat_exactly(tmp_path):
    call, first = _call("select_path", tmp_path)
    iterations = [c["iterations"] for c in json.loads(call.outputs["report"].read_text())["candidates"]]
    _, second = _call("select_path", tmp_path)
    again = [c["iterations"] for c in json.loads(call.outputs["report"].read_text())["candidates"]]
    assert first.failed_ops == second.failed_ops == 0
    assert iterations == again and sum(iterations) > 0


def test_simulate_solver_iterations_repeat_across_runs_and_jobs(tmp_path):
    columns = []
    for jobs in (1, 2, 2):
        call, sample = _call("simulate_heavy", tmp_path / f"jobs{jobs}-{len(columns)}", jobs)
        assert sample.failed_ops == 0, sample.problems
        columns.append(_column(call.outputs["records"], "solver_iterations"))
    assert columns[0] == columns[1] == columns[2]
    assert len(columns[0]) == call.ops


def test_traced_counters_repeat_across_runs_and_jobs(tmp_path):
    counters = []
    for jobs in (1, 2):
        _, sample = _call("simulate_heavy", tmp_path / f"jobs{jobs}", jobs, traced=True)
        counters.append(
            {k: sample.layers[k] for k in ("solver.fit.calls", "solver.fit.iterations",
                                           "sensitivity.sensitivity_closed_form.calls",
                                           "simulate.make_covariance.calls")}
        )
    assert counters[0] == counters[1]
    # Every replication's fits are counted, including those of forked workers.
    assert counters[0]["solver.fit.calls"] == workloads.SIZES["smoke"]["simulate_heavy"][
        "replications"] * 4


def test_derivative_check_fit_count_repeats(tmp_path):
    fits = [_call("derivcheck", tmp_path / str(k), traced=True)[1].layers for k in range(2)]
    assert fits[0]["solver.fit.calls"] == fits[1]["solver.fit.calls"] > 1
    assert fits[0]["solver.fit.iterations"] == fits[1]["solver.fit.iterations"]


def test_traced_select_counts_match_the_report(tmp_path):
    call, sample = _call("select_wide", tmp_path, traced=True)
    report = json.loads(call.outputs["report"].read_text())
    assert sample.layers["solver.fit.calls"] == len(report["candidates"])
    assert sample.layers["solver.fit.iterations"] == sum(c["iterations"] for c in report["candidates"])
    assert sample.layers["cli.read_matrix_csv.values"] == 40 * 80 + 40
    assert sample.layers["cli.write_report.bytes"] == call.outputs["report"].stat().st_size


def test_self_times_subtract_direct_children_only():
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 5.0, 0, None], ["c", 2.0, 3.0, 1, None]]
    assert tracing.self_times(spans) == [6.0, 3.0, 1.0]


def test_checks_fail_on_corrupted_select_report(tmp_path):
    call, sample = _call("select_path", tmp_path)
    assert sample.failed_ops == 0
    doc = json.loads(call.outputs["report"].read_text())
    doc["selected_index"] = next(i for i in range(len(doc["candidates"])) if i != doc["selected_index"])
    call.outputs["report"].write_text(json.dumps(doc))
    outcome = checks.check(run.ROOT, call, 0)
    assert outcome.failed == call.ops and outcome.problems


def test_checks_fail_on_corrupted_simulate_records(tmp_path):
    call, sample = _call("simulate_heavy", tmp_path)
    assert sample.failed_ops == 0
    path = call.outputs["records"]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("trace_v")
    rows[1][col] = repr(float(rows[1][col]) * (1 + 1e-6))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    outcome = checks.check(run.ROOT, call, 0)
    assert outcome.failed == 1 and "trace_v" in outcome.problems[0]


def test_checks_fail_on_failed_derivative_check(tmp_path):
    call, sample = _call("derivcheck", tmp_path)
    assert sample.failed_ops == 0
    doc = json.loads(call.outputs["report"].read_text())
    doc.update(passed=False, failures=["df"])
    call.outputs["report"].write_text(json.dumps(doc))
    assert checks.check(run.ROOT, call, 0).failed == 1
    assert checks.check(run.ROOT, call, 2).failed == 1


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(range(19)) == (None, None)
    assert run.tail_percentile(range(20)) == (50.0, 9)
    assert run.tail_percentile(range(100)) == (90.0, 89)
    assert run.tail_percentile(range(20), higher_is_better=True) == (50.0, 10)


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "derivcheck", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
