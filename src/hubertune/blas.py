"""Thread control for numpy's OpenBLAS, the one BLAS ``hubertune`` calls.

numpy loads its OpenBLAS as it is imported, and from then on the library
reads no environment variable, so its thread count is read and set with
ctypes. The symbols are looked up on numpy's linalg extension module: dlsym
on that handle also searches the OpenBLAS the module links. scipy's own
OpenBLAS, which ``hubertune`` never calls, is left alone. A forked child
keeps its parent's count, which ``hubertune.pool`` relies on. Where numpy
links another BLAS, every function here does nothing.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager

# The variables numpy's OpenBLAS reads as it loads. A user who sets any of
# them chooses the thread count; thread_policy() then leaves it as it is.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# numpy's wheels ship OpenBLAS built as "scipy-openblas", whose symbols
# carry that prefix (64_ in the ILP64 build numpy uses); plain OpenBLAS
# builds export the unprefixed names.
_NAMES = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)


def _openblas():
    """(get, set) thread-count functions of numpy's OpenBLAS (None if none)."""
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    for name in _NAMES:
        get = getattr(lib, name.format("get"), None)
        set_ = getattr(lib, name.format("set"), None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def get_threads() -> int | None:
    """The thread count of numpy's OpenBLAS (None if numpy links another BLAS)."""
    lib = _openblas()
    return lib[0]() if lib else None


@contextmanager
def thread_policy():
    """One OpenBLAS thread for the block, unless the user set a thread variable.

    The previous count is restored on exit, so an in-process caller keeps
    its own setting.
    """
    user_set = any(var in os.environ for var in THREAD_VARIABLES)
    lib = None if user_set else _openblas()
    if lib is not None:
        get, set_ = lib
        previous = get()
        set_(1)
    try:
        yield
    finally:
        if lib is not None:
            set_(previous)
