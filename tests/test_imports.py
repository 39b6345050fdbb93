"""What importing the package and running a command load, from fresh
processes: never a scipy module (the installed runtime is numpy and the
standard library), and no process-pool machinery until a pool starts; and
that every name the package exports resolves."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys

def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy"))

seen = {"start": scipy_modules()}
import hubertune
seen["import hubertune"] = scipy_modules()
import hubertune.cli
seen["import hubertune.cli"] = scipy_modules()
design, response, grid, out, qq = sys.argv[1:]
codes = [
    hubertune.cli.main(["select", design, response, grid, "--out", out]),
    hubertune.cli.main(
        ["diagnose", design, response, "--tau", "0.1", "--out", out, "--qq-out", qq]
    ),
]
seen["select and diagnose"] = scipy_modules()
print(json.dumps({"codes": codes, "seen": seen}))
"""


def write_inputs(tmp_path) -> list:
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 4))
    y = X @ np.array([1.0, 0.0, -0.5, 0.0]) + rng.standard_t(3, size=30)
    paths = [tmp_path / name for name in ("x.csv", "y.csv", "grid.json", "out.json", "qq.csv")]
    np.savetxt(paths[0], X, delimiter=",", fmt="%.17g")
    np.savetxt(paths[1], y, fmt="%.17g")
    paths[2].write_text(
        json.dumps([{"huber_scale": 1.0, "lambda": lam, "tau": 0.1} for lam in (0.05, 0.1)])
    )
    return [str(path) for path in paths]


def run_script(script, args) -> dict:
    """Run script in a fresh interpreter; its last line of output as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_no_scipy_module_is_loaded(tmp_path):
    doc = run_script(SCRIPT, write_inputs(tmp_path))
    assert doc["codes"] == [0, 0]
    assert doc["seen"] == {
        "start": [],
        "import hubertune": [],
        "import hubertune.cli": [],
        "select and diagnose": [],
    }


POOL_SCRIPT = """
import json, sys

def loaded(prefixes):
    return sorted(name for name in sys.modules if name.startswith(prefixes))

POOL = ("multiprocessing", "concurrent.futures")
import hubertune.cli
seen = {
    "layers": loaded("hubertune."),
    "import hubertune.cli": loaded(POOL),
}
design, response, grid, out, _ = sys.argv[1:]
argv = ["select", design, response, grid, "--out", out, "--jobs"]
codes = [hubertune.cli.main(argv + ["1"])]
seen["select --jobs 1"] = loaded(POOL)
codes.append(hubertune.cli.main(argv + ["2"]))
seen["select --jobs 2"] = loaded(POOL)
print(json.dumps({"codes": codes, "seen": seen}))
"""


def test_cli_import_loads_every_traced_layer_and_no_pool(tmp_path):
    """perfbench/tracing.py wraps the functions of cli, solver, sensitivity,
    criterion, simulate and formatting, and rebinds the wrappers only in
    modules already loaded when it installs them, right after `import
    hubertune.cli`. A layer loaded later would run untraced, so importing
    the CLI must load all six. multiprocessing is imported only when
    workers may start: a serial `select` loads none of it. The workers are
    forked through multiprocessing alone, so `concurrent.futures` is never
    loaded."""
    doc = run_script(POOL_SCRIPT, write_inputs(tmp_path))
    assert doc["codes"] == [0, 0]
    layers = ["cli", "solver", "sensitivity", "criterion", "simulate", "formatting"]
    assert {f"hubertune.{name}" for name in layers} <= set(doc["seen"]["layers"])
    assert doc["seen"]["import hubertune.cli"] == []
    assert doc["seen"]["select --jobs 1"] == []
    pool = doc["seen"]["select --jobs 2"]
    assert "multiprocessing" in pool
    assert not [name for name in pool if name.startswith("concurrent.futures")]


SELECT_SCRIPT = """
import json, sys

def loaded():
    return sorted(
        name for name in sys.modules
        if name in ("hubertune.diagnostics", "statistics")
    )

import hubertune
seen = {"import hubertune": sorted(n for n in sys.modules if n.startswith("hubertune."))}
import hubertune.cli
seen["import hubertune.cli"] = loaded()
design, response, grid, out, _ = sys.argv[1:]
code = hubertune.cli.main(["select", design, response, grid, "--out", out])
seen["select"] = loaded()
print(json.dumps({"code": code, "seen": seen}))
"""


def test_select_loads_no_diagnostics(tmp_path):
    """The package resolves its names on first use, and the CLI imports
    diagnostics (and with it the statistics module) only for `diagnose`:
    a bare `select` run through main() loads neither."""
    doc = run_script(SELECT_SCRIPT, write_inputs(tmp_path))
    assert doc["code"] == 0
    assert doc["seen"] == {
        "import hubertune": [],
        "import hubertune.cli": [],
        "select": [],
    }


SIMULATE_SCRIPT = """
import json, sys
import hubertune.cli
config, out = sys.argv[1:]
code = hubertune.cli.main(
    ["simulate", config, "--out", out, "--aggregate-out", out + ".agg", "--jobs", "1"]
)
print(json.dumps({"code": code, "numpy.ma": "numpy.ma" in sys.modules}))
"""


def test_simulate_loads_no_numpy_ma(tmp_path):
    """np.median and np.quantile import numpy.ma (about 12 ms) on first
    use; `simulate` takes its medians and quartiles without them."""
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({
        "n": 30, "p": 6, "sigma_seed": 1, "base_seed": 2, "replications": 3,
        "noise_kind": {"kind": "gaussian", "sigma": 1.0}, "signal_kind": "sparse",
        "grid": [{"huber_scale": 1.0, "lambda": 0.05, "tau": 0.1}],
    }))
    doc = run_script(SIMULATE_SCRIPT, [str(config), str(tmp_path / "records.csv")])
    assert doc == {"code": 0, "numpy.ma": False}


SUBMODULE_SCRIPT = """
import json
import hubertune
print(json.dumps({
    "thread_policy": callable(hubertune.blas.thread_policy),
    "solver.fit": hubertune.solver.fit is hubertune.fit,
    "no_such_name": hasattr(hubertune, "no_such_name"),
}))
"""


def test_submodules_are_attributes_after_a_bare_import():
    """`import hubertune` alone makes hubertune.blas, hubertune.solver and
    the other submodules reachable, as an eager import of them would."""
    doc = run_script(SUBMODULE_SCRIPT, [])
    assert doc == {"thread_policy": True, "solver.fit": True, "no_such_name": False}


EXPORTS_SCRIPT = """
import json, sys
if sys.argv[1] == "star":
    namespace = {}
    exec("from hubertune import *", namespace)
    import hubertune
    unresolved = sorted(set(hubertune.__all__) - set(namespace))
else:
    import hubertune
    unresolved = []
    for name in hubertune.__all__:
        try:
            getattr(hubertune, name)
        except AttributeError as exc:
            unresolved.append(f"{name}: {exc}")
print(json.dumps({"names": len(hubertune.__all__), "unresolved": unresolved}))
"""


def test_every_exported_name_resolves():
    """On a fresh import, getattr(hubertune, name) succeeds for every name
    in hubertune.__all__, and `from hubertune import *` binds them all."""
    for mode in ("getattr", "star"):
        doc = run_script(EXPORTS_SCRIPT, [mode])
        assert doc["names"] > 0 and doc["unresolved"] == [], mode
