"""OpenBLAS thread control.

``hubertune`` runs on numpy alone, so the CLI loads one OpenBLAS, numpy's,
as soon as the package is imported: from then on the
``OPENBLAS_NUM_THREADS`` environment variable is no longer read. scipy
bundles a second one, loaded only when a library caller imports scipy. The
thread count is therefore read and set through each loaded library's own
``*_get_num_threads*`` and ``*_set_num_threads*`` symbols with ctypes, which
covers scipy's too when it is there. A forked child keeps its parent's
counts, which ``hubertune.pool`` relies on: its workers run at the thread
count the caller had when it forked them.
Where no OpenBLAS is found (another BLAS, or no ``/proc/self/maps``), every
function here does nothing.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from typing import Optional

# A user who sets any of these chooses the thread count; thread_policy()
# then leaves every library as it is.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# numpy's wheels ship OpenBLAS built as "scipy-openblas", whose symbols
# carry that prefix (64_ in the ILP64 build numpy uses); plain OpenBLAS
# builds export the unprefixed names.
_GET_THREADS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_SET_THREADS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _symbol(lib, names, argtypes, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = argtypes
            fn.restype = restype
            return fn
    return None


def _openblas_libraries() -> list:
    """(get, set) thread-count functions of every OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted(
                {
                    fields[5].strip()
                    for fields in (line.split(maxsplit=5) for line in maps)
                    if len(fields) == 6 and "openblas" in fields[5].rsplit("/", 1)[-1]
                }
            )
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get = _symbol(lib, _GET_THREADS, [], ctypes.c_int)
        set_ = _symbol(lib, _SET_THREADS, [ctypes.c_int], None)
        if get is not None and set_ is not None:
            found.append((get, set_))
    return found


def get_threads() -> Optional[int]:
    """Largest thread count among the loaded OpenBLAS libraries (None if none)."""
    counts = [get() for get, _ in _openblas_libraries()]
    return max(counts) if counts else None


@contextmanager
def thread_policy():
    """One OpenBLAS thread for the block, unless the user set a thread variable.

    Each library's previous count is restored on exit, so an in-process
    caller keeps its own setting.
    """
    user_set = any(var in os.environ for var in THREAD_VARIABLES)
    libs = [] if user_set else _openblas_libraries()
    previous = [get() for get, _ in libs]
    for _, set_ in libs:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(libs, previous):
            set_(count)
