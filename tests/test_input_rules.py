"""Input rules at construction: tolerances, NaN reserves on every deficit
source and on the ruin curves, extreme reserves, budgets and margins on
every deficit source, and path states that are not finite."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxdeficit import (
    ConvergenceError,
    DeficitFunctional,
    DomainError,
    ExponentialLine,
    PathState,
    Tolerance,
    convex_measure,
    identity,
    proportional_hazard,
    proportional_measure,
    psi_tilde,
    simulate_max_loss,
    tvar,
    ultimate_ruin,
    var_step,
)
from tests.conftest import LINE1, LINE2, LINE3


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

    def test_ultimate_ruin_float(self):
        with pytest.raises(DomainError):
            ultimate_ruin(LINE1, math.nan)

    @pytest.mark.parametrize("u", [[math.nan], [0.0, 5.0, math.nan], [-1.0, math.nan, 2.0]])
    def test_ultimate_ruin_array_entry(self, u):
        # one NaN among reserves of either sign, and a 0-d array
        with pytest.raises(DomainError):
            ultimate_ruin(LINE1, np.array(u))
        with pytest.raises(DomainError):
            ultimate_ruin(LINE1, np.float64(math.nan))

    @pytest.mark.parametrize("v", [math.nan, np.array([0.0, math.nan])])
    def test_psi_tilde(self, v):
        with pytest.raises(DomainError):
            psi_tilde((LINE1, LINE2, LINE3), [1.0, 2.0, 3.0], v)


def _curve(source, line, g):
    if source == "closed":
        return DeficitFunctional.for_line(line, g)
    if source == "quadrature":
        return DeficitFunctional.quadrature(g, lambda v: ultimate_ruin(line, v))
    return DeficitFunctional.for_line(line, g, 5.0, 200, 1)


# NaN, both infinities, a negative, zero, the least subnormal, a tiny
# normal and a value near the largest float
EXTREMES = (math.nan, math.inf, -math.inf, -1.0, 0.0, 5e-324, 1e-300, 1e308)
# LINE1, a line of rare large claims, and the no-claims line
EXTREME_LINES = (LINE1, ExponentialLine(0.1, 100.0, 20.0), ExponentialLine(0.0, 1.0, 1.0))
EXTREME_GS = (identity(), proportional_hazard(0.5), tvar(0.1), var_step(0.1))


class TestExtremeInputs:
    """D(u), the convex rule at budget u and the proportional rule at
    margin u give a finite value or raise DomainError or ConvergenceError,
    with no warning, on every source; D(-inf) = +inf, as the slope -1
    continuation below zero implies."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(
        source=st.sampled_from(["closed", "quadrature", "empirical"]),
        line=st.sampled_from(EXTREME_LINES),
        g=st.sampled_from(EXTREME_GS),
    )
    def test_finite_or_documented_error(self, source, line, g):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = _curve(source, line, g)
            calls = (
                ("D", d),
                ("convex", lambda x: convex_measure(d, x).value),
                ("proportional", lambda x: proportional_measure(d, x).value),
            )
            for x in EXTREMES:
                for name, call in calls:
                    try:
                        value = call(x)
                    except (DomainError, ConvergenceError):
                        continue
                    if name == "D" and x == -math.inf:
                        assert value == math.inf
                    else:
                        assert math.isfinite(value), (name, x, value)


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
