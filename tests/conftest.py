import numpy as np
import pytest

from maxdeficit import ExponentialLine

# the three reference lines used throughout: high-frequency/low-severity,
# moderate/moderate, and rare/extreme with matching premium loadings
LINE1 = ExponentialLine(10.0, 1.0, 12.0)
LINE2 = ExponentialLine(1.0, 10.0, 15.0)
LINE3 = ExponentialLine(0.1, 100.0, 20.0)


def counted(f):
    """f wrapped to record the argument of every call, and that record:
    the call counter of the edge search and marginal-call tests."""
    calls = []

    def wrapped(x):
        calls.append(x)
        return f(x)

    return wrapped, calls


@pytest.fixture
def lines():
    return (LINE1, LINE2, LINE3)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
