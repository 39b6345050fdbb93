"""The installed runtime is numpy and the standard library: no scipy module
is loaded by importing the package or by running a command."""

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


def test_no_scipy_module_is_loaded(tmp_path):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 4))
    y = X @ np.array([1.0, 0.0, -0.5, 0.0]) + rng.standard_t(3, size=30)
    paths = [tmp_path / name for name in ("x.csv", "y.csv", "grid.json", "out.json", "qq.csv")]
    np.savetxt(paths[0], X, delimiter=",", fmt="%.17g")
    np.savetxt(paths[1], y, fmt="%.17g")
    paths[2].write_text(
        json.dumps([{"huber_scale": 1.0, "lambda": lam, "tau": 0.1} for lam in (0.05, 0.1)])
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *map(str, paths)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["codes"] == [0, 0]
    assert doc["seen"] == {
        "start": [],
        "import hubertune": [],
        "import hubertune.cli": [],
        "select and diagnose": [],
    }
