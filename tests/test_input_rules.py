"""Input rules at construction: tolerances, NaN reserves on every deficit
source and on the ruin curves, extreme reserves, budgets and margins on
every deficit source and every allocation export, and path states that
are not finite."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxdeficit import (
    AllocationProblem,
    ConvergenceError,
    DeficitFunctional,
    DomainError,
    ExponentialLine,
    MeasureResult,
    PathState,
    Tolerance,
    aggregate_min,
    brent_root,
    choquet_se,
    conditional_max_samples,
    convex_measure,
    derive_seed,
    ear_convex_measure,
    estimate_finite_ruin,
    identity,
    invariance_check,
    lambert_w0,
    line_from_ruin_constants,
    method1_exponential,
    method1_generic,
    method2_exact,
    method2_generic,
    method2_two_line,
    path_events,
    premium_lower_bound,
    proportional_hazard,
    proportional_measure,
    psi_tilde,
    rho2_two_line,
    rolling_requirement,
    simulate_max_loss,
    supermartingale_check,
    tail_integral,
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


# the extremes of the float range with a bool, a str and None: a budget
# must be a real number in [0, inf), a reserve one >= 0
EDGE_INPUTS = (math.nan, math.inf, -math.inf, -1.0, 0.0, 5e-324, 1e308, True, "5", None)
NO_CLAIMS = ExponentialLine(0.0, 1.0, 1.0)
LINE_SETS = ((LINE1, LINE2), (LINE1, LINE2, LINE3), (LINE3, NO_CLAIMS), (LINE2, LINE3, NO_CLAIMS))
FIXED = settings(derandomize=True, deadline=None, database=None)


def _is_budget(x):
    return type(x) is float and 0.0 <= x < math.inf


def _is_reserve(x):
    return type(x) is float and x >= 0.0


def _marginals(lines, g):
    return [(lambda u, line=line: g(ultimate_ruin(line, u))) for line in lines]


ROUTES = {
    "method1_exponential": lambda lines, g, u: method1_exponential(AllocationProblem(lines, u)),
    "method1_generic": lambda lines, g, u: method1_generic(_marginals(lines, g), u),
    "method2_two_line": lambda lines, g, u: method2_two_line(lines[0], lines[1], u),
    "method2_exact": lambda lines, g, u: method2_exact(
        lines, identity() if g.primitive_pieces[1] < 1.0 else g, u
    ),
    "method2_generic": lambda lines, g, u: method2_generic(lines, g, u),
    "aggregate_min": lambda lines, g, u: aggregate_min(lines, g, u),
}


class TestAllocationExports:
    """Each allocation export on budgets and reserves from EDGE_INPUTS,
    with warnings as errors: input that breaks the rules raises
    DomainError; any other call returns a sound result, or a DomainError
    that names the budget where the marginal levels underflow."""

    @settings(FIXED, max_examples=160)
    @given(
        route=st.sampled_from(sorted(ROUTES)),
        lines=st.sampled_from(LINE_SETS),
        g=st.sampled_from((identity(), proportional_hazard(0.8), tvar(0.1))),
        total_u=st.sampled_from(EDGE_INPUTS),
    )
    def test_routes(self, route, lines, g, total_u):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not _is_budget(total_u):
                with pytest.raises(DomainError, match="total reserve"):
                    ROUTES[route](lines, g, total_u)
                return
            try:
                res = ROUTES[route](lines, g, total_u)
            except DomainError as exc:
                assert str(total_u) in str(exc)
                return
        assert res.reserves.sum() == pytest.approx(total_u, rel=1e-12, abs=0.0)
        assert math.isfinite(res.threshold) and math.isfinite(res.objective)
        # inf only past the float resolution of water filling's reserves
        assert res.kkt_residual >= 0.0

    @pytest.mark.parametrize(
        "lines, gammas", [((LINE2,), (9e307,)), ((LINE1, LINE2, LINE3), (1.0, 9e307, 2.0))]
    )
    def test_penalty_exponent_past_the_float_range(self, lines, gammas):
        # (1, 10, 15) decays at b = 1/30, so gamma / b is 2.7e309
        problem = AllocationProblem(lines, 40.0, gammas)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="penalty exponent"):
                method1_exponential(problem)

    @settings(FIXED, max_examples=30)
    @given(
        lines=st.sampled_from(LINE_SETS),
        g=st.sampled_from((identity(), proportional_hazard(0.5))),
        total_u=st.sampled_from(EDGE_INPUTS),
    )
    def test_invariance_check(self, lines, g, total_u):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not _is_budget(total_u):
                with pytest.raises(DomainError, match="total reserve"):
                    invariance_check(lines, g, total_u)
                return
            try:
                assert invariance_check(lines, g, total_u) in (True, False)
            except DomainError as exc:
                assert str(total_u) in str(exc)

    @settings(FIXED, max_examples=60)
    @given(
        u=st.lists(st.sampled_from(EDGE_INPUTS), min_size=3, max_size=3),
        v=st.sampled_from((0.0, 2.0)),
    )
    def test_psi_tilde(self, u, v):
        lines = (LINE1, LINE3, NO_CLAIMS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not all(map(_is_reserve, u)):
                with pytest.raises(DomainError, match="reserves"):
                    psi_tilde(lines, u, v)
                return
            assert 0.0 <= psi_tilde(lines, u, v) <= 1.0

    @settings(FIXED, max_examples=60)
    @given(u1=st.sampled_from(EDGE_INPUTS), u2=st.sampled_from(EDGE_INPUTS))
    def test_rho2_two_line(self, u1, u2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not (_is_reserve(u1) and _is_reserve(u2)):
                with pytest.raises(DomainError, match="reserves"):
                    rho2_two_line(LINE1, LINE3, u1, u2)
                return
            value = rho2_two_line(LINE1, LINE3, u1, u2)
        assert 0.0 <= value < math.inf


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


# a scalar argument drawn from the float range's extremes, a bool, a str,
# None and numpy's scalars; every count below 10**4 that a draw can give
# is the np.int64 3
SCALAR_INPUTS = (
    math.nan, math.inf, -math.inf, -1.0, 0.0, 5e-324, 1e308,
    True, "5", None, np.float64(2.0), np.int64(3),
)
_STATE = PathState(1.0, 0.5, 2.0)
_BATCH = simulate_max_loss(LINE1, 2.0, 20, 1)
_CLOSED = DeficitFunctional.for_line(LINE1, proportional_hazard(0.5))
_DECAY = lambda v: np.exp(-v)  # noqa: E731
_ROOT = lambda x: x - 2.5  # noqa: E731

# each scalar export with one argument set to x and the others valid
SCALAR_SITES = {
    "convex_measure": lambda x: convex_measure(_CLOSED, x),
    "proportional_measure": lambda x: proportional_measure(_CLOSED, x),
    "ear_convex_measure": lambda x: ear_convex_measure(LINE1, x),
    "premium_lower_bound.n": lambda x: premium_lower_bound(LINE1, identity(), x, 1),
    "ExponentialLine.lam": lambda x: ExponentialLine(x, 1.0, 1e300),
    "ExponentialLine.mu": lambda x: ExponentialLine(0.5, x, 1e300),
    "ExponentialLine.c": lambda x: ExponentialLine(0.5, 1.0, x),
    "line_from_ruin_constants.a": lambda x: line_from_ruin_constants(x, 0.05),
    "line_from_ruin_constants.b": lambda x: line_from_ruin_constants(0.9, x),
    "line_from_ruin_constants.c": lambda x: line_from_ruin_constants(0.9, 0.05, x),
    "proportional_hazard": proportional_hazard,
    "tvar": tvar,
    "var_step": var_step,
    "choquet_se.n_boot": lambda x: choquet_se(identity(), [1.0, 2.0, 4.0], x),
    "Tolerance.abs_tol": lambda x: Tolerance(abs_tol=x),
    "Tolerance.rel_tol": lambda x: Tolerance(rel_tol=x),
    "Tolerance.max_iter": lambda x: Tolerance(max_iter=x),
    "tail_integral.a": lambda x: tail_integral(_DECAY, x),
    "tail_integral.scale": lambda x: tail_integral(_DECAY, 0.0, scale=x),
    "lambert_w0": lambert_w0,
    "brent_root.lo": lambda x: brent_root(_ROOT, x, 10.0),
    "brent_root.hi": lambda x: brent_root(_ROOT, 0.0, x),
    "derive_seed.seed": derive_seed,
    "derive_seed.tag": lambda x: derive_seed(0, x),
    "path_events.t": lambda x: path_events(LINE1, x, 0, 0),
    "path_events.seed": lambda x: path_events(LINE1, 1.0, x, 0),
    "path_events.index": lambda x: path_events(LINE1, 1.0, 0, x),
    "simulate_max_loss.t": lambda x: simulate_max_loss(LINE1, x, 5, 0).samples,
    "simulate_max_loss.n": lambda x: simulate_max_loss(LINE1, 1.0, x, 0).samples,
    "simulate_max_loss.seed": lambda x: simulate_max_loss(LINE1, 1.0, 5, x).samples,
    "PathState.time": lambda x: PathState(x, 0.5, 2.0),
    "PathState.realized_loss": lambda x: PathState(1.0, x, 1e300),
    "PathState.running_max": lambda x: PathState(1.0, -1e300, x),
    "estimate_finite_ruin": lambda x: estimate_finite_ruin(_BATCH, x),
    "conditional_max_samples.t": lambda x: conditional_max_samples(
        LINE1, x, 1e-300, _STATE, 5, 0
    ),
    "conditional_max_samples.r": lambda x: conditional_max_samples(
        LINE1, 3.0, x, _STATE, 5, 0
    ),
    "conditional_max_samples.n_inner": lambda x: conditional_max_samples(
        LINE1, 3.0, 1.0, _STATE, x, 0
    ),
    "supermartingale_check.t": lambda x: supermartingale_check(
        LINE1, identity(), x, 1e-300, 2, 5
    ),
    "supermartingale_check.r": lambda x: supermartingale_check(
        LINE1, identity(), 3.0, x, 2, 5
    ),
    "supermartingale_check.n_outer": lambda x: supermartingale_check(
        LINE1, identity(), 3.0, 1.0, x, 5
    ),
    "supermartingale_check.n_inner": lambda x: supermartingale_check(
        LINE1, identity(), 3.0, 1.0, 2, x
    ),
    "rolling_requirement": lambda x: rolling_requirement(_STATE, x),
    "DeficitFunctional": _CLOSED,
    "psi_tilde.v": lambda x: psi_tilde((LINE1, LINE3), [1.0, 2.0], x),
}


def _finite(value):
    """Every number that a result holds is finite."""
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    if isinstance(value, (float, np.ndarray)):
        return bool(np.isfinite(value).all())
    if isinstance(value, MeasureResult):
        return math.isfinite(value.value)
    # an int, or an object whose fields its own rules checked
    return True


class TestScalarExports:
    """Each scalar export on every value of SCALAR_INPUTS, with warnings
    as errors: a bool or a str raises DomainError, and any other value
    raises DomainError or gives a finite result, or the documented D(inf)
    = 0, D(-inf) = inf and estimate_finite_ruin's (1, 0) below zero."""

    @settings(FIXED, max_examples=len(SCALAR_SITES))
    @given(site=st.sampled_from(sorted(SCALAR_SITES)))
    def test_domain_error_or_finite(self, site):
        call = SCALAR_SITES[site]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in SCALAR_INPUTS:
                try:
                    value = call(x)
                except DomainError:
                    continue
                assert not isinstance(x, (bool, str)), (site, x, value)
                if site == "DeficitFunctional" and x == -math.inf:
                    assert value == math.inf
                else:
                    assert _finite(value), (site, x, value)
