import os
import sys
import tracemalloc
from fractions import Fraction

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


@pytest.fixture
def exp_points(monkeypatch):
    """The points r, as Fractions, of each exp the nome lookups take during
    the test (bigmath_kernel._exp_nome)."""
    import quintic_moduli.bigmath_kernel as bk

    points = []
    exp_nome = bk._exp_nome

    def spy(r_num, r_den, ctx):
        points.append(Fraction(r_num, r_den))
        return exp_nome(r_num, r_den, ctx)

    monkeypatch.setattr(bk, "_exp_nome", spy)
    return points
