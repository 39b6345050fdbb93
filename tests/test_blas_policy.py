"""The CLI's BLAS thread policy, observed from fresh processes.

Every test starts the CLI in a subprocess whose environment holds none of
the thread variables (nor MKL_NUM_THREADS, which numpy's OpenBLAS does not
read) unless the test sets one, so each run begins with the libraries'
default thread count. tests/blas_probe.py reads the count of every loaded
OpenBLAS through ctypes before the call, in every process of a --jobs pool
as it starts taking items, inside each `simulate` replication and each
`select` grid cell (in whichever process runs it) and after the call.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hubertune.blas import THREAD_VARIABLES
from hubertune.cli import main

ROOT = Path(__file__).resolve().parents[1]
PROBE = Path(__file__).with_name("blas_probe.py")
STRIPPED_VARIABLES = (*THREAD_VARIABLES, "MKL_NUM_THREADS")

# The acceptance heavy-tail shape (400 x 200, t(2) noise): large enough for
# a multi-threaded OpenBLAS to split its products, so the records of a
# 2-thread run differ from those of a 1-thread run in the last digits.
HEAVY_CONFIG = {
    "n": 400,
    "p": 200,
    "sigma_seed": 1000,
    "noise_kind": {"kind": "student_t", "dof": 2},
    "signal_kind": "sparse",
    "grid": [
        {"huber_scale": 1.08, "lambda": lam, "tau": tau}
        for lam in (0.02, 0.04)
        for tau in (0.05, 0.1)
    ],
    "replications": 4,
    "base_seed": 7,
}
# Thread counts do not depend on the problem size; a small one keeps the
# oversubscribed 3-thread runs short.
SMALL_CONFIG = dict(HEAVY_CONFIG, n=60, p=20)


def clean_env(**extra):
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_VARIABLES}
    src = str(ROOT / "src")
    if env.get("PYTHONPATH"):
        src += os.pathsep + env["PYTHONPATH"]
    env["PYTHONPATH"] = src
    env.update(extra)
    return env


def write_config(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("blas") / "config.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    return write_config(tmp_path_factory, SMALL_CONFIG)


@pytest.fixture(scope="module")
def heavy_config(tmp_path_factory):
    return write_config(tmp_path_factory, HEAVY_CONFIG)


@pytest.fixture(scope="module")
def select_inputs(tmp_path_factory):
    """Design, response and a three-cell grid for `select`."""
    root = tmp_path_factory.mktemp("select")
    rng = np.random.default_rng(4)
    X = rng.standard_normal((60, 20))
    y = X[:, :3].sum(axis=1) + rng.standard_t(2, 60)
    np.savetxt(root / "x.csv", X, delimiter=",")
    np.savetxt(root / "y.csv", y)
    cells = [
        {"huber_scale": 1.0, "lambda": lam, "tau": 0.05} for lam in (0.02, 0.05, 0.1)
    ]
    (root / "grid.json").write_text(json.dumps(cells))
    return [str(root / name) for name in ("x.csv", "y.csv", "grid.json")]


def probe(config, tmp_path, jobs, env=None, set_threads=None, probe_flags=()):
    """Run `simulate` under the probe; return (before, calls, after, main
    pid, pool starts)."""
    cli_args = ["simulate", str(config), "--out", str(tmp_path / "records.csv")]
    before, by_at, after, pid = run_probe(
        cli_args + ["--jobs", str(jobs)], env, set_threads, probe_flags
    )
    calls = by_at["call"]
    assert len(calls) == SMALL_CONFIG["replications"]
    return before, calls, after, pid, by_at.get("start", [])


def probe_select(inputs, tmp_path, jobs, env=None, probe_flags=()):
    """Run `select` under the probe; return (before, cells, after, main pid,
    pool starts)."""
    cli_args = ["select", *inputs, "--out", str(tmp_path / "report.json")]
    before, by_at, after, pid = run_probe(
        cli_args + ["--jobs", str(jobs)], env, None, probe_flags
    )
    cells = by_at["cell"]
    assert len(cells) == 3
    return before, cells, after, pid, by_at.get("start", [])


def run_probe(cli_args, env=None, set_threads=None, probe_flags=()):
    """Run one CLI call under the probe; return (before, lines by "at",
    after, main pid)."""
    cmd = [sys.executable, str(PROBE), *probe_flags]
    if set_threads is not None:
        cmd += ["--set", str(set_threads)]
    cmd += cli_args
    proc = subprocess.run(
        cmd, env=env or clean_env(), capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert lines[-1] == {"exit": 0}, proc.stderr
    by_at = {}
    for line in lines[:-1]:
        by_at.setdefault(line["at"], []).append(line)
    (before,), (after,) = by_at.pop("before"), by_at.pop("after")
    if not before["threads"]:
        pytest.skip("no OpenBLAS is loaded in this environment")
    return before["threads"], by_at, after["threads"], before["pid"]


def assert_pool_threads(starts, items, main_pid, jobs, threads):
    """The caller and jobs - 1 forked workers each started taking items at
    `threads`, and every item ran in one of them at that count."""
    assert len(starts) == jobs
    assert [start["pid"] for start in starts].count(main_pid) == 1
    assert {item["pid"] for item in items} <= {start["pid"] for start in starts}
    for line in starts + items:
        assert line["threads"] == threads


# The pool forks its workers whatever start method the caller chose, so
# "spawn" checks that a global start method changes nothing.
@pytest.mark.parametrize("start_method", [None, "spawn"])
def test_simulate_workers_run_one_thread_by_default(config, tmp_path, start_method):
    flags = ["--start-method", start_method] if start_method else []
    before, calls, _, main_pid, starts = probe(
        config, tmp_path, jobs=2, probe_flags=flags
    )
    assert_pool_threads(starts, calls, main_pid, 2, [1] * len(before))


@pytest.mark.parametrize("start_method", [None, "spawn"])
def test_select_workers_run_one_thread_by_default(
    select_inputs, tmp_path, start_method
):
    flags = ["--start-method", start_method] if start_method else []
    before, cells, _, main_pid, starts = probe_select(
        select_inputs, tmp_path, jobs=2, probe_flags=flags
    )
    assert_pool_threads(starts, cells, main_pid, 2, [1] * len(before))


def test_select_workers_keep_a_user_thread_count(select_inputs, tmp_path):
    env = clean_env(OPENBLAS_NUM_THREADS="2")
    before, cells, after, main_pid, starts = probe_select(
        select_inputs, tmp_path, 2, env
    )
    assert set(before) == {min(2, os.cpu_count())}
    assert_pool_threads(starts, cells, main_pid, 2, before)
    assert after == before


def test_without_fork_every_item_runs_in_the_caller(config, tmp_path):
    before, calls, after, main_pid, starts = probe(
        config, tmp_path, jobs=2, set_threads=3, probe_flags=["--no-fork"]
    )
    assert starts == []
    for call in calls:
        assert call["pid"] == main_pid
        assert set(call["threads"]) == {1}
    assert after == before


def test_user_openblas_variable_is_left_in_force(config, tmp_path):
    env = clean_env(OPENBLAS_NUM_THREADS="2")
    before, calls, after, _, _ = probe(config, tmp_path, jobs=2, env=env)
    assert set(before) == {min(2, os.cpu_count())}
    for call in calls:
        assert call["threads"] == before
    assert after == before


@pytest.mark.parametrize("variable", THREAD_VARIABLES)
def test_any_user_thread_variable_switches_the_policy_off(config, tmp_path, variable):
    # The probe sets 3 threads by hand, a count no default gives on a
    # small machine; with the variable set the CLI must keep it.
    env = clean_env(**{variable: "1"})
    before, calls, after, _, _ = probe(config, tmp_path, jobs=2, env=env, set_threads=3)
    assert set(before) == {3}
    for call in calls:
        assert set(call["threads"]) == {3}
    assert set(after) == {3}


def test_in_process_main_restores_the_callers_thread_count(config, tmp_path):
    before, calls, after, main_pid, _ = probe(config, tmp_path, jobs=1, set_threads=3)
    assert set(before) == {3}
    for call in calls:
        assert call["pid"] == main_pid
        assert set(call["threads"]) == {1}
    assert after == before


@pytest.mark.parametrize("jobs", [1, 2])
def test_default_records_equal_those_of_an_explicit_single_thread(
    heavy_config, tmp_path, jobs
):
    # numpy's OpenBLAS does not read MKL_NUM_THREADS, so it must leave the
    # policy in force.
    outs = {}
    for label, env in (
        ("default", clean_env()),
        ("explicit", clean_env(OPENBLAS_NUM_THREADS="1")),
        ("mkl", clean_env(MKL_NUM_THREADS="1")),
    ):
        out = tmp_path / f"{label}.csv"
        cmd = [sys.executable, "-m", "hubertune.cli", "simulate", str(heavy_config)]
        cmd += ["--out", str(out), "--jobs", str(jobs)]
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        outs[label] = out.read_bytes()
    assert outs["default"] == outs["explicit"] == outs["mkl"]


# Runs in a fresh process with tests/ on sys.path. numpy's OpenBLAS is found
# and set to 3 threads as blas_probe.py does, through /proc/self/maps; then
# that file is made unreadable, and the counts are read through the handles
# found before.
NO_PROC_SCRIPT = """
import builtins, json
import blas_probe
from hubertune.blas import get_threads, thread_policy

libs = blas_probe._libraries()
for lib in libs:
    blas_probe._call(lib, blas_probe._SET, 3)
real_open = builtins.open


def no_proc(file, *args, **kwargs):
    if str(file).startswith("/proc/"):
        raise FileNotFoundError(file)
    return real_open(file, *args, **kwargs)


def counts():
    return [blas_probe._call(lib, blas_probe._GET) for lib in libs]


builtins.open = no_proc
found = get_threads() is not None
with thread_policy():
    inside = counts()
print(json.dumps({"found": found, "inside": inside, "after": counts()}))
"""


def test_the_policy_needs_no_proc():
    env = clean_env()
    env["PYTHONPATH"] = str(PROBE.parent) + os.pathsep + env["PYTHONPATH"]
    proc = subprocess.run(
        [sys.executable, "-c", NO_PROC_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    if not seen["after"]:
        pytest.skip("no OpenBLAS is loaded in this environment")
    assert seen == {"found": True, "inside": [1], "after": [3]}


@pytest.mark.parametrize("command", ["select", "simulate"])
def test_jobs_help_names_exactly_the_thread_variables(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    named = re.findall(r"\b[A-Z]+_NUM_THREADS\b", capsys.readouterr().out)
    assert named == list(THREAD_VARIABLES)
