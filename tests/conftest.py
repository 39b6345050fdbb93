"""Run the suite under the thread policy of the `hubertune` command.

Library-level tests then use one OpenBLAS thread, as every CLI call does,
unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS is set.
"""

import pytest

from hubertune.blas import thread_policy


@pytest.fixture(scope="session", autouse=True)
def _one_blas_thread():
    with thread_policy():
        yield
