"""The CLI's BLAS thread policy, observed from fresh processes.

Every test starts the CLI in a subprocess whose environment holds none of
the thread variables unless the test sets one, so each run begins with the
libraries' default thread count. tests/blas_probe.py reads the count of
every loaded OpenBLAS through ctypes before the call, inside each
`simulate` replication (in the worker under --jobs) and after the call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PROBE = Path(__file__).with_name("blas_probe.py")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

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
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
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


def probe(config, tmp_path, jobs, env=None, set_threads=None, start_method=None):
    """Run `simulate` under the probe; return (before, calls, after, main pid)."""
    cmd = [sys.executable, str(PROBE)]
    if set_threads is not None:
        cmd += ["--set", str(set_threads)]
    if start_method is not None:
        cmd += ["--start-method", start_method]
    cmd += ["simulate", str(config), "--out", str(tmp_path / "records.csv")]
    cmd += ["--jobs", str(jobs)]
    proc = subprocess.run(
        cmd, env=env or clean_env(), capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert lines[-1] == {"exit": 0}, proc.stderr
    by_at = {}
    for line in lines[:-1]:
        by_at.setdefault(line["at"], []).append(line)
    (before,), (after,) = by_at["before"], by_at["after"]
    if not before["threads"]:
        pytest.skip("no OpenBLAS is loaded in this environment")
    calls = by_at["call"]
    assert len(calls) == SMALL_CONFIG["replications"]
    return before["threads"], calls, after["threads"], before["pid"]


@pytest.mark.parametrize("start_method", [None, "spawn"])
def test_simulate_workers_run_one_thread_by_default(config, tmp_path, start_method):
    _, calls, _, main_pid = probe(config, tmp_path, jobs=2, start_method=start_method)
    assert all(call["pid"] != main_pid for call in calls)
    for call in calls:
        assert set(call["threads"]) == {1}


def test_user_openblas_variable_is_left_in_force(config, tmp_path):
    env = clean_env(OPENBLAS_NUM_THREADS="2")
    before, calls, after, _ = probe(config, tmp_path, jobs=2, env=env)
    assert set(before) == {min(2, os.cpu_count())}
    for call in calls:
        assert call["threads"] == before
    assert after == before


@pytest.mark.parametrize("variable", THREAD_VARIABLES)
def test_any_user_thread_variable_switches_the_policy_off(config, tmp_path, variable):
    # The probe sets 3 threads by hand, a count no default gives on a
    # small machine; with the variable set the CLI must keep it.
    env = clean_env(**{variable: "1"})
    before, calls, after, _ = probe(config, tmp_path, jobs=2, env=env, set_threads=3)
    assert set(before) == {3}
    for call in calls:
        assert set(call["threads"]) == {3}
    assert set(after) == {3}


def test_in_process_main_restores_the_callers_thread_count(config, tmp_path):
    before, calls, after, main_pid = probe(config, tmp_path, jobs=1, set_threads=3)
    assert set(before) == {3}
    for call in calls:
        assert call["pid"] == main_pid
        assert set(call["threads"]) == {1}
    assert after == before


@pytest.mark.parametrize("jobs", [1, 2])
def test_default_records_equal_those_of_an_explicit_single_thread(
    heavy_config, tmp_path, jobs
):
    outs = {}
    for label, env in (
        ("default", clean_env()),
        ("explicit", clean_env(OPENBLAS_NUM_THREADS="1")),
    ):
        out = tmp_path / f"{label}.csv"
        cmd = [sys.executable, "-m", "hubertune.cli", "simulate", str(heavy_config)]
        cmd += ["--out", str(out), "--jobs", str(jobs)]
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        outs[label] = out.read_bytes()
    assert outs["default"] == outs["explicit"]
