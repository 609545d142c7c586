"""The one-call exp-sinh stage of tail_integral and the Newton loop
around it: agreement with the doubling panels on the pooled pass, the
cases where the stage must defer to them, exact call counts, the node
budget, and the single-curve route of QuadratureCurve and choquet_tail,
which take their decay length from the tail's own values."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxdeficit import (
    DeficitFunctional,
    Distortion,
    DomainError,
    Tolerance,
    TruncationError,
    choquet_tail,
    identity,
    line_from_ruin_constants,
    method1_generic,
    method2_generic,
    proportional_hazard,
    tail_integral,
    tvar,
    ultimate_ruin,
)
from maxdeficit import allocate, deficit, distortion
from maxdeficit.distortion import edge_reserve
from tests.conftest import LINE1, LINE2, LINE3

FIXED = settings(derandomize=True, deadline=None, database=None)

SCALES = st.floats(0.05, 500.0)


def panels_only(f, a, tol, scale=None):
    # the panel route: tail_integral as it runs without a decay length
    return tail_integral(f, a, tol)


@st.composite
def pooled_cases(draw):
    """2-4 lines, a concave distortion with p in [0.5, 1] or tvar, and a
    split of a budget up to 300 by random shares."""
    k = draw(st.integers(2, 4))
    a = np.array([draw(st.floats(0.05, 0.99)) for _ in range(k)])
    b = np.array([draw(st.floats(0.005, 1.0)) for _ in range(k)])
    g = draw(
        st.one_of(
            st.just(Distortion("identity")),
            st.builds(Distortion, st.just("ph"), st.floats(0.5, 1.0)),
            st.builds(Distortion, st.just("tvar"), st.floats(0.01, 0.9)),
        )
    )
    shares = np.array([draw(st.floats(0.0, 1.0)) for _ in range(k)]) + 1e-3
    u = shares / shares.sum() * draw(st.floats(0.0, 300.0))
    return a, b, g, u


class TestPooledPassAgainstPanels:
    @settings(FIXED, max_examples=120)
    @given(pooled_cases())
    def test_matches_the_panel_route(self, case):
        # F, the gradient and the Hessian agree with the panels within the
        # pass tolerance, abs_tol + rel_tol * |value| in every entry
        a, b, g, u = case
        deficit = float(np.max(g.primitive(a * np.exp(-b * u)) / b))
        tol = allocate._objective_tol(deficit)
        got = allocate._pooled_deficit(a, b, g, u, tol)
        with mock.patch.object(allocate, "tail_integral", panels_only):
            want = allocate._pooled_deficit(a, b, g, u, tol)
        for x, y in zip(got, want):
            bound = tol.abs_tol + tol.rel_tol * np.abs(y)
            assert np.all(np.abs(np.asarray(x) - y) <= bound)


class TestDeferredCases:
    """With a scale, the integrands the stage cannot take behave exactly
    as without one."""

    @settings(FIXED, max_examples=60)
    @given(SCALES, st.floats(0.0, 30.0))
    def test_nan_row_raises_the_panels_error(self, scale, q):
        f = lambda v: np.vstack((np.exp(-v), np.where(v >= q, np.nan, np.exp(-v))))
        with pytest.raises(TruncationError) as panels:
            tail_integral(f, 0.0)
        with pytest.raises(TruncationError) as staged:
            tail_integral(f, 0.0, scale=scale)
        assert str(staged.value) == str(panels.value)
        np.testing.assert_array_equal(staged.value.partial, panels.value.partial)

    @settings(FIXED, max_examples=40)
    @given(SCALES)
    def test_slow_algebraic_row_raises(self, scale):
        f = lambda v: np.vstack((np.exp(-v), 1.0 / (1.0 + v)))
        with pytest.raises(TruncationError) as staged:
            tail_integral(f, 0.0, scale=scale)
        with pytest.raises(TruncationError) as panels:
            tail_integral(f, 0.0)
        np.testing.assert_array_equal(staged.value.partial, panels.value.partial)

    @pytest.mark.parametrize("scale", [0.5, 1.0, 20.0])
    def test_tail_left_at_the_last_node_defers(self, scale):
        # 1000 / (1 + v)**2 still holds about 5e-9 / scale past the last
        # node: its weighted end term is above abs_tol, although both
        # levels agree to 3e-12 relative, within rel_tol
        f = lambda v: 1000.0 / (1.0 + v) ** 2
        assert tail_integral(f, 0.0, scale=scale) == tail_integral(f, 0.0)

    def test_infinite_value_on_the_fine_level_only_defers(self):
        # the second node of every call is infinite: on the exp-sinh layout
        # it is an odd node, outside the embedded rule, and the panels take
        # the halves of the span that holds it.  The value counts as NaN,
        # so the stage's sums turn NaN, and neither route warns
        f = lambda v: np.where(v == v[1], np.inf, np.exp(-v))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tail_integral(f, 0.0, scale=1.0) == tail_integral(f, 0.0)

    def test_sum_that_overflows_defers(self):
        # finite values whose fine sum overflows, while the coarse sum,
        # which weighs the odd nodes by 0, is 0
        f = lambda v: np.where(np.arange(v.size) % 2 == 1, 1e308, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TruncationError) as panels:
                tail_integral(f, 0.0)
            with pytest.raises(TruncationError) as staged:
                tail_integral(f, 0.0, scale=1.0)
        assert str(staged.value) == str(panels.value)

    @pytest.mark.parametrize("scale", [None, 1.0])
    def test_plus_and_minus_infinity_do_not_warn(self, scale):
        # +inf and -inf count as NaN, with no warning: at the second and
        # fourth node they fall in the first panel's whole span only, so its
        # halves give the panel; at every node past 2 they make the panel
        # [1, 3] NaN, which raises
        def probe(v):
            y = np.exp(-v)
            y[1], y[3] = np.inf, -np.inf
            return y

        f = lambda v: np.where(
            v < 2.0, np.exp(-v), np.where(np.arange(v.size) % 2, np.inf, -np.inf)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tail_integral(probe, 0.0, scale=scale)
            with pytest.raises(TruncationError, match="tail panel 1 is not finite") as err:
                tail_integral(f, 0.0, scale=scale)
        assert got == pytest.approx(1.0, rel=1e-12)
        assert err.value.partial == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_scale_past_the_float_range_skips_the_stage(self):
        # 1e298 times the last offset, 1.9e11, passes the largest float, so
        # the panels take the tail from their first call, with no warning;
        # it decays only past 1e300, beyond 200 panels
        sizes = []

        def f(v):
            sizes.append(v.size)
            return (1.0 + v / 1e300) ** -2

        # 1e296 times it does not, but a = 1.7e308 plus it does, and this
        # tail is exp(-1e300) = 0 from there on
        def g(v):
            sizes.append(v.size)
            return np.exp(-np.minimum(v, 1e300))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TruncationError, match="after 200 panels"):
                tail_integral(f, 0.0, scale=1e298)
            assert sizes[0] == 16 * 3 * 20
            sizes.clear()
            assert tail_integral(g, 1.7e308, scale=1e296) == 0.0
        assert sizes[0] == 16 * 3 * 20

    @settings(FIXED, max_examples=60)
    @given(SCALES, st.floats(0.01, 60.0))
    def test_step_gives_the_panels_value(self, scale, q):
        f = lambda v: np.where(v < q, 1.0, 0.0)
        staged = tail_integral(f, 0.0, scale=scale)
        assert staged == pytest.approx(tail_integral(f, 0.0), abs=1e-10)
        assert staged == pytest.approx(q, abs=1e-10)

    def test_smooth_tail_is_one_call_on_241_nodes(self):
        sizes = []

        def f(v):
            sizes.append(v.size)
            return 0.8 * np.exp(-v / 30.0)

        assert tail_integral(f, 2.0, scale=30.0) == pytest.approx(
            24.0 * math.exp(-2.0 / 30.0), rel=1e-14
        )
        assert sizes == [241]

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_bad_scale(self, scale):
        calls = []

        def f(v):
            calls.append(v)
            return np.exp(-v)

        with pytest.raises(DomainError):
            tail_integral(f, 0.0, scale=scale)
        assert calls == []


class TestExactCounts:
    def test_aggregate_ph_takes_five_one_call_passes(self, monkeypatch):
        # ph:0.8 on the three standard lines at U = 100: five passes, each
        # one integrand call on the 241 exp-sinh nodes
        passes = []
        inner = allocate.tail_integral

        def counted(f, start, *args):
            sizes = []

            def sampled(v):
                sizes.append(v.size)
                return f(v)

            out = inner(sampled, start, *args)
            passes.append(sizes)
            return out

        monkeypatch.setattr(allocate, "tail_integral", counted)
        res = method2_generic([LINE1, LINE2, LINE3], proportional_hazard(0.8), 100.0)
        assert res.kkt_residual <= 1e-12
        assert passes == [[241]] * 5

    def test_certified_marginal_split_makes_no_solve(self, monkeypatch):
        # ph:0.5 at U = 40: the water-filling start on exact fits is
        # certified by its first evaluation, with no linear solve
        evals, solves = [], []
        objective = allocate._marginal_objective
        solve = np.linalg.solve

        def counted_objective(*args):
            evals.append(args[1])
            return objective(*args)

        def counted_solve(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(allocate, "_marginal_objective", counted_objective)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        g = proportional_hazard(0.5)
        marginals = [
            (lambda u, line=line: g(ultimate_ruin(line, u)))
            for line in (LINE1, LINE2, LINE3)
        ]
        res = method1_generic(marginals, 40.0)
        assert len(evals) == 1
        assert solves == []
        assert res.kkt_residual <= 1e-14

    def test_diagonal_step_matches_the_bordered_solve(self, rng):
        for _ in range(200):
            k = int(rng.integers(2, 9))
            grad = (-rng.uniform(0.01, 1.0, k) * 10.0 ** rng.uniform(-3, 3)).tolist()
            h = rng.uniform(0.01, 10.0, k) * 10.0 ** rng.uniform(-3, 3)
            size = int(rng.integers(2, k + 1))
            on = sorted(rng.choice(k, size=size, replace=False).tolist())
            scale = float(rng.uniform(1.0, 1e3))
            closed, level = allocate._kkt_step(grad, h, on, scale)
            # the bordered system with the documented ridge on the diagonal
            n = len(on)
            tiny = np.finfo(float).tiny
            ridge = max(1e-9 * max(abs(grad[i]) for i in on) / scale, tiny)
            kkt = np.ones((n + 1, n + 1))
            kkt[:n, :n] = np.diag(h[on] + ridge)
            kkt[n, n] = 0.0
            sol = np.linalg.solve(kkt, np.append(-np.array(grad)[on], 0.0))
            largest = float(np.max(np.abs(sol[:n])))
            assert closed == pytest.approx(sol[:n], rel=1e-12, abs=1e-12 * largest)
            assert level == pytest.approx(sol[n], rel=1e-12)
            assert abs(sum(closed)) <= 1e-12 * largest

    def test_split_matches_the_panel_route(self):
        # lines far apart in rate, whose passes the stage takes
        lines = [
            line_from_ruin_constants(0.9, 0.005),
            line_from_ruin_constants(0.5, 0.9),
        ]
        res = method2_generic(lines, proportional_hazard(0.7), 250.0)
        with mock.patch.object(allocate, "tail_integral", panels_only):
            want = method2_generic(lines, proportional_hazard(0.7), 250.0)
        assert res.reserves == pytest.approx(want.reserves, rel=1e-9, abs=1e-9)
        assert res.objective == pytest.approx(want.objective, rel=1e-9)


class TestNodeBudget:
    """No tolerance makes one call sample more than 2**20 nodes."""

    @pytest.mark.parametrize("scale", [None, 1.0])
    def test_bisection_stops_at_the_budget(self, scale):
        # rel_tol 1e-300 splits every span whose halves differ by rounding,
        # so the spans double at each depth; a broken budget fails here at
        # 2**21 nodes rather than exhausting memory
        seen = [0]

        def f(v):
            seen[0] += v.size
            if seen[0] > 2**21:
                raise RuntimeError(f"{seen[0]} nodes: the budget did not hold")
            return np.exp(-v)

        with pytest.raises(TruncationError) as err:
            tail_integral(f, 0.0, Tolerance(1e-300, 1e-300, 400), scale)
        assert "more than 1048576 integrand nodes" in str(err.value)
        assert 2**19 < seen[0] <= 2**20
        # the sum over the panels before the one that ran out, [511, 1023]
        # here, whose halves differ by rounding at every depth: 1 - e^-511
        assert err.value.partial == pytest.approx(1.0, rel=1e-12)

    def test_partial_sums_the_panels_before(self):
        # smooth over the first 16 panels, [0, 65535], whose sum is kept,
        # and above abs_tol, so that it does not stop there; a rapid wobble
        # in the next panel bisects past the budget
        def f(v):
            return np.where(v < 65535.0, np.exp(-v) + 1e-6, 1e-3 * np.sin(v * v))

        with pytest.raises(TruncationError) as err:
            tail_integral(f, 0.0, Tolerance(1e-13, 1e-300, 400))
        assert err.value.partial == pytest.approx(1.0 + 65535e-6, rel=1e-12)


STANDARD = (LINE1, LINE2, LINE3)
CURVE_GS = (identity(), proportional_hazard(0.5), tvar(0.01))


def pareto(n):
    # P(X > v) = (1 + v)**-n for v >= 0, 1 below
    return lambda v: np.where(v < 0.0, 1.0, (1.0 + np.maximum(v, 0.0)) ** -n)


def scale_spy(monkeypatch):
    # the scale of every tail_integral call made by the curves and choquet_tail
    scales = []
    inner = tail_integral

    def spy(f, a, tol, scale=None):
        scales.append(scale)
        return inner(f, a, tol, scale)

    monkeypatch.setattr(deficit, "tail_integral", spy)
    monkeypatch.setattr(distortion, "tail_integral", spy)
    return scales


class TestSingleCurveRoute:
    """QuadratureCurve and choquet_tail pass 1/(p r), with r the tail's
    log-decrement over [k, k + 1] at the kink k, so a smooth D(u) past the
    kink is one integrand call."""

    @pytest.mark.parametrize("g", CURVE_GS, ids=str)
    @pytest.mark.parametrize("line", STANDARD)
    def test_one_call_past_the_kink(self, line, g):
        sizes = []

        def psi(v):
            sizes.append(np.size(v))
            return ultimate_ruin(line, v)

        curve = DeficitFunctional.quadrature(g, psi)
        closed = DeficitFunctional.closed_form(line, g)
        kink = edge_reserve(g, lambda v: ultimate_ruin(line, v))
        for u in (kink, kink + 2.0, kink + 17.3, kink + 60.0, kink + 300.0):
            sizes.clear()
            got = curve(u)
            assert sizes == [241]
            assert got == pytest.approx(closed(u), rel=1e-12)

    @pytest.mark.parametrize("g", CURVE_GS, ids=str)
    @pytest.mark.parametrize("line", STANDARD)
    def test_scale_is_the_decay_length_of_g_of_psi(self, monkeypatch, line, g):
        scales = scale_spy(monkeypatch)
        DeficitFunctional.quadrature(g, lambda v: ultimate_ruin(line, v))(1e4)
        choquet_tail(g, lambda v: ultimate_ruin(line, v))
        b = (1.0 - line.lam * line.mu / line.c) / line.mu
        want = 1.0 / (g.primitive_pieces[1] * b)
        assert scales == [pytest.approx(want, rel=1e-9)] * 2

    def test_far_tail_is_exact(self):
        # D(300) = psi(300)/b = 5 exp(-50) on (10, 1, 12) under identity,
        # where the panels gave 1.48e-22
        curve = DeficitFunctional.quadrature(identity(), lambda v: ultimate_ruin(LINE1, v))
        assert curve(300.0) == pytest.approx(5.0 * math.exp(-50.0), rel=1e-12)
        assert abs(curve(300.0) - 9.6437492398195e-22) <= 1e-12 * 9.6437492398195e-22

    @settings(FIXED, max_examples=200)
    @given(
        st.floats(math.log(1e-3), math.log(1e4)),
        st.floats(math.log(0.1), math.log(1000.0)),
        st.floats(0.0, 3.0),
    )
    def test_rough_scale_certifies_an_exponential(self, log_length, log_ratio, start):
        length = math.exp(log_length)
        scale = length * math.exp(log_ratio)
        a = start * length
        sizes = []

        def f(v):
            sizes.append(v.size)
            return np.exp(-v / length)

        got = tail_integral(f, a, scale=scale)
        assert sizes == [241]
        assert got == pytest.approx(length * math.exp(-a / length), rel=1e-14)

    @pytest.mark.parametrize("g", [identity(), tvar(0.3)], ids=str)
    def test_slow_pareto_tail_defers_to_the_panels(self, g):
        # (1 + v)**-1.5 still holds about 1e-6 past the stage's last node,
        # so every call defers, and the panels run as without a scale
        tail = pareto(1.5)
        sizes = []

        def psi(v):
            sizes.append(np.size(v))
            return tail(v)

        curve = DeficitFunctional.quadrature(g, psi)
        kink = edge_reserve(g, tail)
        for u in (kink, kink + 2.0, kink + 17.3):
            sizes.clear()
            assert curve(u) == tail_integral(lambda v: g(tail(v)), u)
            assert sizes[0] == 241 and len(sizes) > 1
        want = kink + tail_integral(lambda v: g(tail(v)), kink)
        assert choquet_tail(g, tail) == want

    def test_faster_pareto_tail_is_one_call(self):
        # (1 + v)**-3 has decayed to 1e-34 by the last node
        tail = pareto(3.0)
        curve = DeficitFunctional.quadrature(identity(), tail)
        assert curve(0.0) == pytest.approx(0.5, rel=1e-12)
        assert choquet_tail(identity(), tail) == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize(
        "tail, value",
        [
            # 0 at k + 1: the rate is infinite
            (lambda v: np.where(v < 0.0, 1.0, np.where(v < 0.5, 0.4, 0.0)), 0.2),
            # flat over [k, k + 1]: the rate is 0
            (lambda v: np.where(v < 0.0, 1.0, 0.4 * np.exp(-np.maximum(v - 2.0, 0.0))), 1.2),
        ],
    )
    def test_no_finite_positive_rate_passes_no_scale(self, monkeypatch, tail, value):
        scales = scale_spy(monkeypatch)
        curve = DeficitFunctional.quadrature(identity(), tail)
        assert curve(0.0) == pytest.approx(value, rel=1e-9)
        assert choquet_tail(identity(), tail) == pytest.approx(value, rel=1e-9)
        assert scales == [None, None]
