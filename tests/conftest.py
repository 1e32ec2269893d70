import tracemalloc

import pytest


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
