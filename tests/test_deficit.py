"""Deficit curves: closed forms, quadrature, and empirical agreement."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxdeficit import (
    DeficitFunctional,
    DomainError,
    TruncationError,
    choquet_weights,
    convex_measure,
    identity,
    line_from_ruin_constants,
    parse_distortion,
    proportional_hazard,
    proportional_measure,
    ruin_constants,
    tvar,
    ultimate_ruin,
    var_step,
)
from tests.conftest import LINE1, LINE2, LINE3


def psi1(v):
    return ultimate_ruin(LINE1, v)


def plateau_edge(line, alpha):
    # reserve where the ruin curve a*exp(-b*v) falls to alpha
    k = ruin_constants(line)
    return math.log(k.a / alpha) / k.b


class TestClosedFormPh:
    def test_undistorted_level(self):
        d = DeficitFunctional.closed_form_ph(LINE1)
        assert d(0.0) == pytest.approx(5.0, abs=1e-12)
        assert d(2.78) == pytest.approx(3.1459143496, abs=1e-9)

    def test_distorted_level(self):
        d = DeficitFunctional.closed_form_ph(LINE1, p=0.5)
        assert d(0.0) == pytest.approx(10.9544511501, abs=1e-9)
        assert d(3.7) == pytest.approx(8.0479108665, abs=1e-9)

    def test_negative_reserve_is_linear_extension(self):
        d = DeficitFunctional.closed_form_ph(LINE1, p=0.5)
        assert d(-4.0) == pytest.approx(d(0.0) + 4.0, rel=1e-14)

    def test_decreasing_and_convex(self):
        d = DeficitFunctional.closed_form_ph(LINE1, p=0.7)
        grid = np.linspace(-2.0, 40.0, 64)
        vals = [d(u) for u in grid]
        assert all(x > y for x, y in zip(vals, vals[1:]))
        mid = [(vals[i - 1] + vals[i + 1]) / 2 for i in range(1, len(vals) - 1)]
        assert all(m >= v - 1e-12 for m, v in zip(mid, vals[1:-1]))

    def test_rejects_bad_exponent(self):
        for p in (0.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                DeficitFunctional.closed_form_ph(LINE1, p=p)

    def test_introspection(self):
        d = DeficitFunctional.closed_form_ph(LINE1, p=0.5)
        k = ruin_constants(LINE1)
        assert (k.a, k.b) == pytest.approx((5.0 / 6.0, 1.0 / 6.0))
        # the power piece decays as exp(-p*b*u)
        assert math.log(d(0.0) / d(1.0)) / k.b == pytest.approx(0.5, rel=1e-12)
        assert d.kind == "closed-ph"


class TestClosedFormTvar:
    def test_level_and_kink(self):
        d = DeficitFunctional.closed_form_tvar(LINE1, 0.01)
        assert plateau_edge(LINE1, 0.01) == pytest.approx(26.5370917752, abs=1e-9)
        assert d(0.0) == pytest.approx(32.5370917752, abs=1e-9)

    def test_linear_left_of_kink(self):
        d = DeficitFunctional.closed_form_tvar(LINE1, 0.01)
        v = plateau_edge(LINE1, 0.01)
        # unit slope: the distorted tail is flat at 1 on the plateau
        assert d(v - 10.0) - d(v - 3.0) == pytest.approx(7.0, rel=1e-12)

    def test_exponential_right_of_kink(self):
        d = DeficitFunctional.closed_form_tvar(LINE1, 0.01)
        v = plateau_edge(LINE1, 0.01)
        assert d(v + 6.0) / d(v) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_continuity_at_kink(self):
        # the slope -1 part and the power piece both equal G(alpha)/b at
        # the plateau edge
        for line, alpha, level in (
            (LINE1, 0.01, 6.0),
            (line_from_ruin_constants(0.95, 0.05), 0.05, 20.0),
        ):
            d = DeficitFunctional.closed_form_tvar(line, alpha)
            v = plateau_edge(line, alpha)
            assert v > 0.0
            left = tvar(alpha).primitive(alpha) / ruin_constants(line).b
            assert left == pytest.approx(level, rel=1e-12)
            assert d(v) == pytest.approx(level, rel=1e-12)
            for side in (-math.inf, math.inf):
                assert d(math.nextafter(v, side)) == pytest.approx(level, rel=1e-12)

    def test_plateau_already_gone(self):
        # alpha above a: the plateau ends at negative reserve, one branch
        d = DeficitFunctional.closed_form_tvar(LINE1, 0.9)
        assert plateau_edge(LINE1, 0.9) < 0.0
        # only the power piece is live on u >= 0: D(0) = G(psi(0)) / b
        k = ruin_constants(LINE1)
        assert d(0.0) == pytest.approx(tvar(0.9).primitive(k.a) / k.b, rel=1e-12)
        assert d(-2.0) == pytest.approx(d(0.0) + 2.0, rel=1e-12)

    def test_negative_reserve_is_linear_extension(self):
        d = DeficitFunctional.closed_form_tvar(LINE1, 0.01)
        assert d(-5.0) == pytest.approx(d(0.0) + 5.0, rel=1e-12)

    @pytest.mark.parametrize("alpha", [1e-300, 1e-308, 1e-310, 5e-324])
    def test_edge_near_the_smallest_float(self, alpha):
        # a / alpha and a / (alpha b) overflow here; the plateau ends at
        # v_e = (ln a - ln alpha) / b, where tvar's deficit is 1/b and
        # varstep's 0, and D falls with slope -1 up to it
        k = ruin_constants(LINE1)
        v_e = (math.log(k.a) - math.log(alpha)) / k.b
        for g, at_edge in ((tvar(alpha), 1.0 / k.b), (var_step(alpha), 0.0)):
            d = DeficitFunctional.for_line(LINE1, g)
            assert d(0.0) == pytest.approx(v_e + at_edge, rel=1e-14)
            value, _, residual, branch = d.convex_root(at_edge + 100.0)
            assert (value, branch) == (pytest.approx(v_e - 100.0, rel=1e-14), "linear")
            assert residual <= 1e-12
            value, _, residual, branch = d.proportional_root(0.5)
            assert value == pytest.approx((v_e + at_edge) / 1.5, rel=1e-14)
            assert (branch, residual <= 1e-12) == ("linear", True)
        d = DeficitFunctional.for_line(LINE1, tvar(alpha))
        # past the edge D(u) = exp(-b (u - v_e)) / b
        value, _, residual, branch = d.convex_root(0.5 / k.b)
        assert value == pytest.approx(v_e + math.log(2.0) / k.b, rel=1e-14)
        assert (branch, residual <= 1e-12) == ("exponential", True)
        # a margin below 1/(b v_e) is met there, where ln D(u) = ln(margin u)
        value, method, _, branch = d.proportional_root(1e-4)
        assert (method, branch) == ("lambert-w", "tail")
        gap = -math.log(k.b) - k.b * (value - v_e) - math.log(1e-4 * value)
        assert abs(gap) <= 1e-12

    def test_tail_margin_where_alpha_times_margin_underflows(self):
        # alpha * margin is below the least float while W's argument
        # a / (alpha * margin) = 1e290 is not; past v_e, D(u) = exp(v_e - u)
        line = line_from_ruin_constants(1e-40, 1.0)
        d = DeficitFunctional.closed_form_tvar(line, 1e-300)
        value, method, _, branch = d.proportional_root(1e-30)
        assert (method, branch) == ("lambert-w", "tail")
        v_e = math.log(1e-40) - math.log(1e-300)
        assert abs(v_e - value - math.log(1e-30 * value)) <= 1e-12

    def test_zero_frequency_line_is_the_no_claims_curve(self):
        # the same curve closed_form and for_line give a line without claims
        d = DeficitFunctional.closed_form_tvar(line_from_ruin_constants(0.0, 0.2), 0.05)
        assert d(0.0) == 0.0
        assert d(-5.0) == pytest.approx(5.0, rel=1e-12)


class TestQuadrature:
    def test_matches_ph_closed_form(self):
        g = proportional_hazard(0.5)
        closed = DeficitFunctional.closed_form_ph(LINE1, p=0.5)
        quad = DeficitFunctional.quadrature(g, psi1)
        for u in (0.0, 1.0, 7.3, 25.0):
            assert quad(u) == pytest.approx(closed(u), rel=1e-7)

    def test_matches_tvar_closed_form(self):
        g = tvar(0.05)
        closed = DeficitFunctional.closed_form_tvar(LINE1, 0.05)
        quad = DeficitFunctional.quadrature(g, psi1)
        for u in (0.0, plateau_edge(LINE1, 0.05), 30.0):
            assert quad(u) == pytest.approx(closed(u), rel=1e-6)

    def test_step_distortion_integrates_to_plateau(self):
        # g = 1{x > alpha} makes D(0) exactly the plateau width
        quad = DeficitFunctional.quadrature(var_step(0.01), psi1)
        assert quad(0.0) == pytest.approx(26.5370917752, abs=1e-6)

    def test_negative_reserve_is_linear_extension(self):
        quad = DeficitFunctional.quadrature(identity(), psi1)
        assert quad(-3.0) == pytest.approx(quad(0.0) + 3.0, rel=1e-9)


class TestQuadratureEdge:
    # the curve finds the edge reserve v_e of tvar and varstep once, keeps
    # D(v_e), and integrates only the smooth tail beyond it

    @pytest.mark.parametrize("line", [LINE1, LINE2, LINE3])
    @pytest.mark.parametrize(
        "g", [tvar(0.01), tvar(0.3), tvar(0.9), var_step(0.01), var_step(0.4)]
    )
    def test_matches_closed_form_on_both_sides(self, line, g):
        # LINE1 has a = 5/6, so tvar(0.9) leaves it no plateau
        k = ruin_constants(line)
        edge = max(math.log(k.a / g.param) / k.b, 0.0)
        closed, quad = DeficitFunctional.for_line(line, g), quad_curve(line, g)
        for u in (-2.0, 0.0, 0.99 * edge, 1.01 * edge, edge + 1.0 / k.b, edge + 4.0 / k.b):
            assert quad(u) == pytest.approx(closed(u), rel=1e-12, abs=1e-12)
        assert quad(-2.0) == quad(0.0) + 2.0

    @pytest.mark.parametrize("g", [tvar(0.01), var_step(0.01)])
    def test_one_integrand_call_per_value(self, g):
        # the edge is at 26.5 on LINE1: 0, 3 and 20 lie before it, 40 past it
        calls = []

        def psi(v):
            calls.append(v)
            return ultimate_ruin(LINE1, v)

        for u in (0.0, 3.0, 20.0, 40.0):
            quad = DeficitFunctional.quadrature(g, psi)
            calls.clear()
            quad(u)
            assert len(calls) == 1
            # the value at the edge is kept
            quad(u)
            assert len(calls) == (1 if u < 26.5 else 2)

    def test_tail_that_never_reaches_the_edge(self):
        with pytest.raises(TruncationError):
            DeficitFunctional.quadrature(tvar(0.1), lambda v: np.full(v.shape, 0.5))(0.0)


class TestEmpirical:
    def test_translation_identity_is_exact(self, rng):
        # weights sum to one, so the u < 0 extension needs no special case
        d = DeficitFunctional.empirical(
            proportional_hazard(0.5), rng.exponential(4.0, size=200)
        )
        assert d(-7.0) == pytest.approx(d(0.0) + 7.0, rel=1e-12)

    def test_identity_weights_give_mean_shortfall(self, rng):
        x = rng.exponential(4.0, size=500)
        d = DeficitFunctional.empirical(identity(), x)
        for u in (0.0, 2.0, 9.0):
            assert d(u) == pytest.approx(np.maximum(x - u, 0.0).mean(), rel=1e-12)

    def test_approaches_closed_form(self, rng):
        # exponential-tail maxima sampled directly from the ruin curve:
        # M > 0 with probability a, and conditionally Exp(b)
        a, b = 5.0 / 6.0, 1.0 / 6.0
        n = 200_000
        hits = rng.random(n) < a
        maxima = np.where(hits, rng.exponential(1.0 / b, size=n), 0.0)
        d = DeficitFunctional.empirical(identity(), maxima)
        closed = DeficitFunctional.closed_form_ph(LINE1)
        for u in (0.0, 5.0):
            assert d(u) == pytest.approx(closed(u), rel=0.02)

    @staticmethod
    def least_root(f, lo, hi):
        # least float u with f(u) <= 0 for a decreasing f with f(lo) > 0
        # >= f(hi), by bisection down to adjacent floats
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                return hi
            lo, hi = (mid, hi) if f(mid) > 0.0 else (lo, mid)

    SAMPLES = {
        "exponential": np.random.default_rng(11).exponential(3.0, 400),
        "ties": np.round(np.random.default_rng(12).exponential(3.0, 300)),
        "atom-at-zero": np.maximum(np.random.default_rng(14).normal(1.0, 2.0, 300), 0.0),
        "shifted": 5.0 + np.random.default_rng(13).exponential(3.0, 200),
        "one": np.array([2.5]),
        "all-zero": np.zeros(5),
    }

    @pytest.mark.parametrize(
        "spec", ["identity", "ph:0.5", "tvar:0.1", "tvar:0.05", "varstep:0.3", "varstep:0.9"]
    )
    @pytest.mark.parametrize("name", list(SAMPLES))
    def test_matches_the_choquet_sum_and_its_roots(self, name, spec):
        # the reference is the Choquet sum itself, weights dotted with
        # the shortfalls; tvar weights are zero past rank alpha * n and
        # varstep weights before it; "shifted" puts roots left of every
        # sample, as a budget past D(0) does for every set
        x = self.SAMPLES[name]
        g = parse_distortion(spec)
        w, ordered = choquet_weights(g, x.size), np.sort(x)[::-1]

        def reference(u):
            return float(w @ np.maximum(ordered - u, 0.0))

        d = DeficitFunctional.empirical(g, x)
        grid = np.linspace(0.0, 1.1 * x.max(), 30)
        for u in np.concatenate(([-2.0, 0.0], x[:25], grid)):
            assert d(u) == pytest.approx(reference(u), rel=1e-13, abs=1e-300)
        d0, top = reference(0.0), x.max()
        # roots near zero are held to the problem's own scale
        scale = 1e-13 * (d0 + top) + 1e-300
        budgets = [f * d0 for f in (1e-4, 0.05, 0.7, 1.0) if f * d0 > 0.0] + [d0 + 0.5]
        for budget in budgets:
            value, _, residual, _ = d.convex_root(budget)
            want = self.least_root(lambda u: reference(u) - budget, -budget - 1.0, top)
            assert value == pytest.approx(want, rel=1e-13, abs=scale)
            # |D'| <= 1, so rounding the root to a float moves D by at most its spacing
            assert residual <= 1e-12 * budget + 2.0 * np.spacing(abs(value))
        for margin in (1e-3, 0.1, 1.0, 10.0):
            value, _, residual, _ = d.proportional_root(margin)
            want = self.least_root(lambda u: reference(u) - margin * u, -1.0, top)
            assert value == pytest.approx(want, rel=1e-13, abs=scale)
            assert residual <= 1e-12 * margin * value + 4.0 * np.spacing(value)

    @pytest.mark.parametrize("margin", [1e307, 1e308])
    def test_margin_near_the_largest_float(self, margin):
        # margin * x overflows at the far samples, so the rule solves the
        # same sign change in x - D(x) / margin, and warns nothing
        d = DeficitFunctional.for_line(LINE1, identity(), 5.0, 200, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, _, residual, _ = d.proportional_root(margin)
        assert 0.0 < value < 1e-300
        assert d(value) == pytest.approx(margin * value, rel=1e-15)
        assert residual <= 1e-15 * d(value)

    def test_overflow_at_the_knot_past_the_root(self):
        # D(u) = 10 - u / 2 on [0, 20]; margin * 20 overflows, and the
        # interpolation on it would put the root at 0
        d = DeficitFunctional.empirical(identity(), [0.0, 20.0])
        value = d.proportional_root(1e307)[0]
        assert value == pytest.approx(1e-306, rel=1e-15)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            DeficitFunctional.empirical(identity(), [])
        with pytest.raises(DomainError):
            DeficitFunctional.empirical(identity(), [1.0, -2.0])
        with pytest.raises(DomainError):
            DeficitFunctional.empirical(identity(), [[1.0], [2.0]])


def quad_curve(line, g):
    return DeficitFunctional.quadrature(g, lambda v: ultimate_ruin(line, v))


class TestSlope:
    # D'(u) = -g(S(u)) for the tail S of each source; central differences
    # stay away from zero, from the tvar kink and from every sample
    H = 1e-5

    def central(self, d, u):
        return (d(u + self.H) - d(u - self.H)) / (2.0 * self.H)

    @pytest.mark.parametrize(
        "d",
        [
            quad_curve(LINE1, proportional_hazard(0.6)),
            quad_curve(LINE1, tvar(0.3)),
            quad_curve(LINE1, var_step(0.4)),
        ],
        ids=["quad-ph", "quad-tvar", "quad-varstep"],
    )
    def test_matches_central_differences(self, d):
        # LINE1's tvar:0.3 kink sits at 6 ln(25/9) = 6.13, the varstep
        # jump at 6 ln(25/12) = 4.40
        for u in (0.5, 2.0, 5.0, 9.0, 20.0):
            assert d.slope(u) == pytest.approx(self.central(d, u), rel=1e-5, abs=1e-9)

    @pytest.mark.parametrize("spec", ["identity", "ph:0.5", "tvar:0.1", "varstep:0.3"])
    def test_empirical_matches_central_differences(self, spec, rng):
        x = rng.exponential(3.0, size=400)
        d = DeficitFunctional.empirical(parse_distortion(spec), x)
        grid = np.sort(x)
        for u in 0.5 * (grid[:-1] + grid[1:])[::40]:
            assert d.slope(u) == pytest.approx(self.central(d, u), rel=1e-6, abs=1e-9)

    def test_right_derivative_at_a_sample(self):
        d = DeficitFunctional.empirical(identity(), [1.0, 2.0, 2.0, 4.0])
        assert d.slope(2.0) == pytest.approx(-0.25)
        assert d.slope(1.9) == pytest.approx(-0.75)
        assert d.slope(4.0) == 0.0

    def test_minus_one_below_zero(self, rng):
        curves = [
            quad_curve(LINE1, proportional_hazard(0.5)),
            DeficitFunctional.empirical(identity(), rng.exponential(1.0, 30)),
        ]
        for d in curves:
            assert d.slope(-1e-9) == -1.0
            assert d.slope(-3.0) == -1.0

    def test_closed_forms_refused(self):
        # closed forms are inverted analytically and need no slope
        for d in (
            DeficitFunctional.closed_form_ph(LINE1, p=0.5),
            DeficitFunctional.closed_form_tvar(LINE1, 0.01),
        ):
            with pytest.raises(DomainError):
                d.slope(1.0)


@st.composite
def curves(draw, source):
    a = draw(st.floats(0.1, 0.95))
    b = draw(st.floats(0.01, 0.5))
    line = line_from_ruin_constants(a, b)
    if source == "empirical":
        g = draw(st.sampled_from([identity(), proportional_hazard(0.4), tvar(0.1)]))
        n = draw(st.integers(1, 300))
        seed = draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        x = np.where(rng.random(n) < a, rng.exponential(1.0 / b, n), 0.0)
        return DeficitFunctional.empirical(g, x), 1.0 / b
    g = draw(
        st.one_of(
            st.floats(0.2, 1.0).map(proportional_hazard),
            st.floats(0.01, 0.9).map(tvar),
            st.floats(0.01, 0.9).map(var_step),
        )
    )
    return quad_curve(line, g), 1.0 / b


UNIT = st.floats(0.0, 1.0)


class TestSlopeProperties:
    # the tangent inequality is what keeps Newton steps from passing the
    # root; both sources it serves must satisfy it, with room for
    # quadrature error
    @staticmethod
    def check(curve, u_frac, h_frac, below):
        d, scale = curve
        u, h = u_frac * 6.0 * scale, h_frac * 6.0 * scale
        du, dh = d(u), d(u + h)
        slack = 1e-9 * max(1.0, du)
        assert dh >= du + h * d.slope(u) - slack
        assert dh <= du + slack
        d0 = d(0.0)
        assert d(-below) == pytest.approx(d0 + below, rel=1e-12, abs=1e-12)

    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @given(curves("quadrature"), UNIT, UNIT, st.floats(0.0, 50.0))
    def test_quadrature(self, curve, u_frac, h_frac, below):
        self.check(curve, u_frac, h_frac, below)

    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @given(curves("empirical"), UNIT, UNIT, st.floats(0.0, 50.0))
    def test_empirical(self, curve, u_frac, h_frac, below):
        self.check(curve, u_frac, h_frac, below)


class TestSourceTags:
    def test_kinds_distinguish_construction(self, rng):
        closed = DeficitFunctional.closed_form_ph(LINE1)
        quad = DeficitFunctional.quadrature(identity(), psi1)
        emp = DeficitFunctional.empirical(identity(), rng.exponential(1.0, 50))
        assert len({closed.kind, quad.kind, emp.kind}) == 3


def ruin_maxima(a, b, n, rng):
    # the all-time maximum of an exponential line: M > 0 with probability
    # a, and then Exp(b)
    return np.where(rng.random(n) < a, rng.exponential(1.0 / b, size=n), 0.0)


class TestOneClosedForm:
    # one closed source serves every kind; varstep gets its closed form
    # D(u) = max(0, v_alpha - u) on u >= 0 from G = max(0, ln(y / alpha))
    @pytest.mark.parametrize("alpha", [0.01, 0.3, 0.9])
    def test_varstep_matches_quadrature(self, alpha):
        # LINE1 has a = 5/6, so alpha = 0.9 leaves no plateau: D = 0 on u >= 0
        g = var_step(alpha)
        closed = DeficitFunctional.for_line(LINE1, g)
        quad = quad_curve(LINE1, g)
        assert (closed.kind, quad.kind) == ("closed-tvar", "quadrature")
        kink = max(6.0 * math.log((5.0 / 6.0) / alpha), 0.0)
        for u in (-3.0, 0.0, 1.0, 4.0, 12.0, 30.0):
            assert closed(u) == pytest.approx(max(kink - u, 0.0), abs=1e-12)
            assert closed(u) == pytest.approx(quad(u), rel=1e-9, abs=1e-9)
        for budget in (0.5, 3.0, 40.0):
            got = convex_measure(closed, budget)
            want = convex_measure(quad, budget)
            assert got.value == pytest.approx(want.value, abs=1e-8)
            assert (got.method, got.branch) == ("closed-form", "linear")
        for margin in (0.01, 0.2, 2.0):
            got = proportional_measure(closed, margin)
            want = proportional_measure(quad, margin)
            assert got.value == pytest.approx(want.value, abs=1e-8)
            assert got.branch == ("linear" if kink > 0.0 else "degenerate")

    @pytest.mark.parametrize("alpha", [0.1, 0.9])
    def test_varstep_matches_large_sample(self, alpha, rng):
        g = var_step(alpha)
        closed = DeficitFunctional.for_line(LINE1, g)
        maxima = ruin_maxima(5.0 / 6.0, 1.0 / 6.0, 200_000, rng)
        emp = DeficitFunctional.empirical(g, maxima)
        for u in (0.0, 3.0, 8.0):
            assert emp(u) == pytest.approx(closed(u), rel=0.02, abs=0.05)
        assert convex_measure(emp, 2.0).value == pytest.approx(
            convex_measure(closed, 2.0).value, rel=0.02, abs=0.05
        )
        assert proportional_measure(emp, 0.1).value == pytest.approx(
            proportional_measure(closed, 0.1).value, rel=0.02, abs=0.05
        )

    @pytest.mark.parametrize(
        "g",
        [identity(), proportional_hazard(0.4), tvar(0.05), tvar(0.9), var_step(0.05)],
        ids=lambda g: g.label(),
    )
    def test_inverse_round_trip(self, g):
        # the convex root inverts D, i.e. G then psi, on every piece where
        # D decreases strictly: varstep only left of its plateau edge
        d = DeficitFunctional.for_line(LINE1, g)
        top = plateau_edge(LINE1, g.param) if g.kind == "varstep" else 60.0
        for u in np.linspace(0.0, top, 13)[:-1]:
            value, method, residual, _ = d.convex_root(d(u))
            assert value == pytest.approx(u, abs=1e-9 * max(1.0, u))
            assert method == "closed-form" and residual <= 1e-12 * max(1.0, d(u))

    def test_named_constructors_are_the_one_source(self):
        for named, g in (
            (DeficitFunctional.closed_form_ph(LINE1), identity()),
            (DeficitFunctional.closed_form_ph(LINE1, 0.5), proportional_hazard(0.5)),
            (DeficitFunctional.closed_form_tvar(LINE1, 0.01), tvar(0.01)),
        ):
            one = DeficitFunctional.closed_form(LINE1, g)
            assert named.kind == one.kind
            for u in (-2.0, 0.0, 3.0, 30.0):
                assert named(u) == one(u)

    def test_finite_horizon_gives_empirical_curve(self):
        d = DeficitFunctional.for_line(LINE1, identity(), 20.0, 500, 3)
        assert d.kind == "empirical"
        again = DeficitFunctional.for_line(LINE1, identity(), 20.0, 500, 3)
        assert d(1.0) == again(1.0)
        with pytest.raises(DomainError):
            DeficitFunctional.for_line(LINE1, identity(), math.inf)
