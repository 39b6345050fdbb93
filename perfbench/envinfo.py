"""Environment record attached to every benchmark result.

It describes the benchmark process, whose environment every CLI call
inherits unchanged apart from PYTHONPATH: CPU count, the inherited BLAS
thread variables, the OpenBLAS thread count actually in effect in the
libraries numpy and scipy loaded, the Python, numpy and scipy versions, and
the git commit. The benchmark never sets a thread variable itself.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_GET_THREADS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_GET_CONFIG = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _symbol(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn
    return None


def openblas_libraries() -> list:
    """Thread count and build string of every OpenBLAS loaded in this process."""
    with open("/proc/self/maps") as maps:
        paths = sorted(
            {line.split()[-1] for line in maps if "openblas" in line.rsplit("/", 1)[-1]}
        )
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        get_threads = _symbol(lib, _GET_THREADS, ctypes.c_int)
        get_config = _symbol(lib, _GET_CONFIG, ctypes.c_char_p)
        found.append(
            {
                "library": Path(path).name,
                "threads": get_threads() if get_threads else None,
                "config": get_config().decode() if get_config else None,
            }
        )
    return found


def environment(root: Path) -> dict:
    """The record for a benchmark run from the checkout at `root`."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_variables": {v: os.environ.get(v, "unset") for v in THREAD_VARIABLES},
        "openblas": openblas_libraries(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout at `root`, or 'unknown' outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def blas_threads(record: dict) -> int:
    """Largest OpenBLAS thread count in effect across the loaded libraries."""
    counts = [lib["threads"] for lib in record["openblas"] if lib["threads"] is not None]
    return max(counts) if counts else 0

