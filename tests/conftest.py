import tracemalloc

import pytest

from lhc import networks


@pytest.fixture
def peak_traced_bytes():
    """peak_traced_bytes(fn) -> (fn(), the peak bytes tracemalloc traced while fn ran)."""
    def measure(fn):
        tracemalloc.start()
        try:
            result = fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak
    return measure


@pytest.fixture
def one_blas_thread(monkeypatch):
    """Let the row-block pool run as under a one-thread BLAS, whatever numpy's BLAS runs.

    Pooled outputs are bitwise the serial ones under a threaded BLAS too, so
    the pooled-path tests run in every test environment.
    """
    monkeypatch.setattr(networks, "_blas_threads", lambda: 1)
