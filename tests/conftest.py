import os
import sys
import tracemalloc

import pytest

from quintic_moduli import PrecisionContext

sys.path.insert(0, os.path.dirname(__file__))  # for oracle_values


@pytest.fixture(scope="session")
def ctx512():
    return PrecisionContext(precision_bits=512, tol_exp=120)


@pytest.fixture(scope="session")
def ctx1024():
    return PrecisionContext(precision_bits=1024, tol_exp=120)


@pytest.fixture
def traced_peak():
    """call(fn, *args) -> (fn(*args), the peak bytes it allocated past what
    was allocated before it), measured by tracemalloc."""

    def call(fn, *args):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            value = fn(*args)
            return value, tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()

    return call
