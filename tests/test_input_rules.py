"""Input rules at construction: tolerances, NaN reserves on every deficit
source, and path states that are not finite."""

import math

import numpy as np
import pytest

from maxdeficit import (
    DeficitFunctional,
    DomainError,
    PathState,
    Tolerance,
    proportional_hazard,
    simulate_max_loss,
    tvar,
    ultimate_ruin,
)
from tests.conftest import LINE1


class TestTolerance:
    def test_nan_tolerance(self):
        # the panels once ran 200 of them and raised TruncationError
        with pytest.raises(DomainError):
            Tolerance(math.nan, 1e-10)
        with pytest.raises(DomainError):
            Tolerance(1e-10, math.nan)

    def test_no_iterations(self):
        # once TruncationError after 0 panels
        with pytest.raises(DomainError):
            Tolerance(max_iter=0)

    def test_fractional_iterations(self):
        # once a bare TypeError from range()
        with pytest.raises(DomainError):
            Tolerance(max_iter=2.5)

    def test_negative_tolerances(self):
        # once bisected every span until memory ran out
        with pytest.raises(DomainError):
            Tolerance(-1.0, -1.0, 5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(abs_tol=0.0),
            dict(rel_tol=math.inf),
            dict(abs_tol="1e-10"),
            dict(rel_tol=True),
            dict(max_iter=True),
            dict(max_iter=-3),
            dict(max_iter="200"),
        ],
    )
    def test_other_bad_fields(self, kwargs):
        with pytest.raises(DomainError):
            Tolerance(**kwargs)

    def test_good_fields(self):
        tol = Tolerance(5e-324, 1e300, np.int64(3))
        assert (tol.abs_tol, tol.rel_tol, tol.max_iter) == (5e-324, 1e300, 3)


class TestNanReserve:
    """A NaN reserve is a DomainError on every source."""

    def test_closed_curve(self):
        curve = DeficitFunctional.for_line(LINE1, proportional_hazard(0.5))
        with pytest.raises(DomainError):
            curve(math.nan)

    def test_quadrature_curve(self):
        psi = lambda v: ultimate_ruin(LINE1, v)
        curve = DeficitFunctional.quadrature(tvar(0.1), psi)
        with pytest.raises(DomainError):
            curve(math.nan)

    def test_empirical_curve(self):
        samples = simulate_max_loss(LINE1, 20.0, 200, 3).samples
        curve = DeficitFunctional.empirical(proportional_hazard(0.5), samples)
        with pytest.raises(DomainError):
            curve(np.float64(math.nan))


class TestPathState:
    @pytest.mark.parametrize(
        "time, loss, peak",
        [
            (1.0, math.nan, 0.0),
            (1.0, 0.0, math.inf),
            (math.nan, 0.0, 0.0),
            (math.inf, -1.0, 0.0),
            (1.0, -math.inf, 0.0),
        ],
    )
    def test_rejects_values_that_are_not_finite(self, time, loss, peak):
        with pytest.raises(DomainError):
            PathState(time, loss, peak)
