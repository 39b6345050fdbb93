"""Run the suite under the thread policy of the `hubertune` command.

Library-level tests then use one OpenBLAS thread, as every CLI call does,
unless a variable of hubertune.blas.THREAD_VARIABLES is set.
"""

import pytest

import hubertune.data
from hubertune.blas import thread_policy


@pytest.fixture(scope="session", autouse=True)
def _one_blas_thread():
    with thread_policy():
        yield


@pytest.fixture
def step_bounds(monkeypatch):
    """Record the shape of every matrix whose step bound (top singular value)
    is computed."""
    shapes = []
    original = hubertune.data.largest_singular_value

    def recording(X):
        shapes.append(X.shape)
        return original(X)

    monkeypatch.setattr(hubertune.data, "largest_singular_value", recording)
    return shapes
