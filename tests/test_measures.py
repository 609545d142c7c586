"""Capital requirement rules sharing one deficit curve."""

import math

import numpy as np
import pytest

from maxdeficit import (
    ConvergenceError,
    DeficitFunctional,
    DomainError,
    ExponentialLine,
    Tolerance,
    brent_root,
    coherent_measure,
    convex_measure,
    critical_threshold,
    ear_convex_measure,
    identity,
    lambert_w0,
    line_from_ruin_constants,
    parse_distortion,
    premium_lower_bound,
    proportional_hazard,
    proportional_measure,
    ruin_constants,
    tvar,
    ultimate_ruin,
    var_step,
)
from maxdeficit.deficit import _newton_root
from tests.conftest import LINE1, LINE2, LINE3


def bisect(f, lo, hi, steps=200):
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.fixture
def d_id():
    return DeficitFunctional.closed_form_ph(LINE1)


@pytest.fixture
def d_ph():
    return DeficitFunctional.closed_form_ph(LINE1, p=0.5)


@pytest.fixture
def d_tv():
    return DeficitFunctional.closed_form_tvar(LINE1, 0.01)


class TestCoherent:
    def test_levels(self, d_id, d_ph, d_tv):
        assert coherent_measure(d_id).value == pytest.approx(5.0, abs=1e-12)
        assert coherent_measure(d_ph).value == pytest.approx(
            10.9544511501, abs=1e-9
        )
        assert coherent_measure(d_tv).value == pytest.approx(
            32.5370917752, abs=1e-9
        )

    def test_method_tag_tracks_source(self, d_id, rng):
        assert coherent_measure(d_id).method == "closed-form"
        quad = DeficitFunctional.quadrature(identity(), lambda v: ultimate_ruin(LINE1, v))
        assert coherent_measure(quad).method == "quadrature"
        emp = DeficitFunctional.empirical(identity(), rng.exponential(1.0, 64))
        assert coherent_measure(emp).method == "empirical"


class TestConvex:
    def test_ph_branches(self, d_id):
        inside = convex_measure(d_id, 2.0)
        assert inside.branch == "exponential"
        assert inside.value == pytest.approx(6.0 * math.log(2.5), rel=1e-12)
        beyond = convex_measure(d_id, 20.0)
        assert beyond.branch == "continuation"
        assert beyond.value == pytest.approx(-8.3177661667, abs=1e-9)

    def test_continuation_still_on_exponential_curve(self, d_id):
        # the analytic branch ignores the linear sub-zero extension, so
        # its defining relation holds on the formula, not on d itself
        r = convex_measure(d_id, 20.0)
        assert r.residual < 1e-9
        assert d_id(r.value) != pytest.approx(20.0, rel=1e-3)

    def test_bracketed_route_follows_curve_instead(self, d_id):
        quad = DeficitFunctional.quadrature(identity(), lambda v: ultimate_ruin(LINE1, v))
        r = convex_measure(quad, 20.0)
        assert r.method == "root-bracketed"
        assert r.branch is None
        # on the curve, D(u) = D(0) - u below zero, so u = D(0) - A
        assert r.value == pytest.approx(5.0 - 20.0, abs=1e-6)

    def test_tvar_branches(self, d_tv):
        tail = convex_measure(d_tv, 5.0)
        assert tail.branch == "exponential"
        assert tail.value == pytest.approx(27.6310211159, abs=1e-9)
        linear = convex_measure(d_tv, 20.0)
        assert linear.branch == "linear"
        assert linear.value == pytest.approx(12.5370917752, abs=1e-9)
        for r in (tail, linear):
            assert r.residual < 1e-9

    def test_matches_bisection_oracle(self, d_ph):
        budget = 3.3
        oracle = bisect(lambda u: d_ph(u) - budget, 0.0, 60.0)
        assert convex_measure(d_ph, budget).value == pytest.approx(oracle, abs=1e-9)

    def test_modified_homogeneity(self):
        # scaling claims and premium by c turns budget A into A/c
        c = 2.5
        scaled = ExponentialLine(10.0, c * 1.0, c * 12.0)
        d_base = DeficitFunctional.closed_form_ph(LINE1)
        d_scaled = DeficitFunctional.closed_form_ph(scaled)
        for budget in (2.0, 7.0, 20.0):
            lhs = convex_measure(d_scaled, budget).value
            rhs = c * convex_measure(d_base, budget / c).value
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)

    def test_monotone_in_budget(self, d_tv):
        budgets = [0.5, 2.0, 6.0, 20.0, 32.0]
        vals = [convex_measure(d_tv, a).value for a in budgets]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_rejects_nonpositive_budget(self, d_id):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                convex_measure(d_id, bad)


class TestProportional:
    def test_identity_lambert_route(self, d_id):
        r = proportional_measure(d_id, 0.2)
        assert r.method == "lambert-w"
        assert r.value == pytest.approx(7.3472766361, abs=1e-9)
        assert r.residual < 1e-9

    def test_tvar_linear_branch(self, d_tv):
        r = proportional_measure(d_tv, 0.3)
        assert r.branch == "linear"
        assert r.value == pytest.approx(25.0285321347, abs=1e-9)

    def test_tvar_tail_branch(self, d_tv):
        r = proportional_measure(d_tv, 0.1)
        assert r.branch == "tail"
        assert r.value == pytest.approx(30.5809044826, abs=1e-9)
        oracle = bisect(lambda u: d_tv(u) - 0.1 * u, 0.0, 200.0)
        assert r.value == pytest.approx(oracle, abs=1e-8)

    def test_tvar_branch_edge(self, d_tv):
        k = ruin_constants(LINE1)
        plateau_edge = math.log(k.a / 0.01) / k.b
        edge = 1.0 / (k.b * plateau_edge)
        assert edge == pytest.approx(0.2260986264, abs=1e-9)
        lo = proportional_measure(d_tv, edge * (1.0 - 1e-9))
        hi = proportional_measure(d_tv, edge * (1.0 + 1e-9))
        assert lo.branch == "tail" and hi.branch == "linear"
        assert lo.value == pytest.approx(hi.value, rel=1e-6)

    def test_bracketed_matches_lambert(self, d_ph):
        quad = DeficitFunctional.quadrature(
            proportional_hazard(0.5), lambda v: ultimate_ruin(LINE1, v)
        )
        direct = proportional_measure(d_ph, 0.15).value
        assert proportional_measure(quad, 0.15).value == pytest.approx(
            direct, rel=1e-6
        )

    def test_step_distortion_closed_form(self):
        # varstep:0.4 makes D(u) = v_alpha - u below the plateau edge
        # v_alpha = ln(a / alpha) / b, so D(u) = delta * u at v_alpha / (1 + delta)
        quad = DeficitFunctional.quadrature(
            var_step(0.4), lambda v: ultimate_ruin(LINE3, v)
        )
        v_alpha = math.log(0.5 / 0.4) / 0.005
        res = proportional_measure(quad, 0.05)
        assert res.value == pytest.approx(v_alpha / 1.05, abs=1e-9)

    def test_decreasing_in_margin(self, d_id):
        vals = [proportional_measure(d_id, m).value for m in (0.05, 0.2, 0.8, 3.0)]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_rejects_nonpositive_margin(self, d_id):
        for bad in (0.0, math.nan):
            with pytest.raises(DomainError):
                proportional_measure(d_id, bad)


@pytest.fixture
def count_evals(monkeypatch):
    """Count D evaluations made while the fixture is active."""
    calls = []
    inner = DeficitFunctional.__call__

    def counted(self, u):
        calls.append(u)
        return inner(self, u)

    monkeypatch.setattr(DeficitFunctional, "__call__", counted)
    return calls


class TestNewtonRoute:
    def test_step_distortion_takes_few_evaluations(self, count_evals):
        # varstep makes D(u) = v_alpha - u up to v_alpha: one Newton step
        # lands on the root
        quad = DeficitFunctional.quadrature(
            var_step(0.4), lambda v: ultimate_ruin(LINE1, v)
        )
        v_alpha = 6.0 * math.log(25.0 / 12.0)
        r = convex_measure(quad, 2.0)
        assert len(count_evals) <= 2
        assert r.value == pytest.approx(v_alpha - 2.0, abs=1e-9)
        count_evals.clear()
        r = proportional_measure(quad, 0.05)
        assert len(count_evals) <= 3
        assert r.value == pytest.approx(v_alpha / 1.05, abs=1e-9)
        assert r.method == "root-bracketed" and r.branch is None

    def test_budget_beyond_coherent_level_is_exact(self, count_evals):
        quad = DeficitFunctional.quadrature(
            identity(), lambda v: ultimate_ruin(LINE1, v)
        )
        d0 = quad(0.0)
        count_evals.clear()
        r = convex_measure(quad, d0 + 7.5)
        assert len(count_evals) == 1
        assert r.value == d0 - (d0 + 7.5)

    def test_matches_closed_forms_on_random_lines(self):
        rng = np.random.default_rng(8505)
        worst = 0.0
        for _ in range(100):
            line = line_from_ruin_constants(
                rng.uniform(0.1, 0.95), rng.uniform(0.01, 0.5)
            )
            if rng.integers(2):
                p = rng.uniform(0.3, 1.0)
                g = proportional_hazard(p)
                closed = DeficitFunctional.closed_form_ph(line, p)
            else:
                alpha = rng.uniform(0.01, 0.5)
                g = tvar(alpha)
                closed = DeficitFunctional.closed_form_tvar(line, alpha)
            quad = DeficitFunctional.quadrature(
                g, lambda v, ln=line: ultimate_ruin(ln, v)
            )
            d0 = closed(0.0)
            budget = d0 * math.exp(rng.uniform(math.log(1e-4), math.log(3.0)))
            margin = math.exp(rng.uniform(math.log(1e-3), math.log(10.0)))
            want = convex_measure(closed, budget)
            # the ph continuation leaves the curve; the curve itself is
            # linear below zero
            target = d0 - budget if want.branch == "continuation" else want.value
            got = convex_measure(quad, budget).value
            worst = max(worst, abs(got - target) / max(1.0, abs(target)))
            want = proportional_measure(closed, margin).value
            got = proportional_measure(quad, margin).value
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        assert worst <= 1e-6

    @pytest.mark.parametrize("tail", ["exponential", "pareto"])
    @pytest.mark.parametrize("n", [100, 1000, 20_000])
    def test_empirical_curves_take_few_evaluations(self, tail, n, count_evals):
        rng = np.random.default_rng(n)
        if tail == "exponential":
            x = rng.exponential(3.0, n)
        else:
            x = 4.0 * rng.pareto(2.5, n)
        for g in (identity(), proportional_hazard(0.5), tvar(0.1)):
            d = DeficitFunctional.empirical(g, x)
            d0 = d(0.0)
            for budget in (1e-4 * d0, 0.05 * d0, 0.7 * d0):
                count_evals.clear()
                r = convex_measure(d, budget)
                assert len(count_evals) <= 1
                assert d(r.value) == pytest.approx(budget, rel=1e-9)
                assert d(r.value * (1.0 - 1e-6)) > budget
            for margin in (1e-3, 0.1, 10.0):
                count_evals.clear()
                r = proportional_measure(d, margin)
                assert len(count_evals) <= 1
                assert d(r.value) == pytest.approx(margin * r.value, rel=1e-9)

    def test_step_limit_raises(self):
        # the exponential fit at zero misses a Pareto tail's roots by far
        # more than two Newton steps mend: from the rules' own starts, the
        # solve stops at its step limit, and the integrals do not truncate
        quad = DeficitFunctional.quadrature(identity(), pareto_tail)
        d0, w0 = quad(0.0), -quad.slope(0.0)
        rate, param = w0 / d0, 0.01
        solves = (
            (
                lambda u: quad(u) - param,
                quad.slope,
                math.log(d0 / param) / rate,
                (0.0, d0 - param),
            ),
            (
                lambda u: quad(u) - param * u,
                lambda u: quad.slope(u) - param,
                lambert_w0(w0 / param) / rate,
                (0.0, d0),
            ),
        )
        for f, slope, start, restart in solves:
            with pytest.raises(ConvergenceError, match="not settled in 2 Newton steps"):
                _newton_root(f, slope, start, restart, Tolerance(max_iter=2))


def pareto_tail(v):
    """P(M > v) = (1 + v)**-3 for v >= 0, a tail no exponential fits."""
    v = np.asarray(v, dtype=float)
    return np.where(v < 0.0, 1.0, (1.0 + np.maximum(v, 0.0)) ** -3.0)


def requirement(d, rule, param):
    if rule == "coherent":
        return coherent_measure(d).value
    if rule == "convex":
        return convex_measure(d, param).value
    if rule == "proportional":
        return proportional_measure(d, param).value
    return critical_threshold(d)


class TestFittedStart:
    @pytest.mark.parametrize(
        "gtext, rule, param, evals",
        [
            ("identity", "coherent", None, 1),
            ("identity", "convex", 2.0, 2),
            ("identity", "proportional", 0.05, 2),
            ("identity", "critical", None, 2),
            ("ph:0.5", "coherent", None, 1),
            ("ph:0.5", "convex", 2.0, 2),
            ("ph:0.5", "proportional", 0.05, 2),
            ("ph:0.5", "critical", None, 2),
            ("tvar:0.01", "coherent", None, 1),
            ("tvar:0.01", "convex", 10.0, 1),
            ("tvar:0.01", "proportional", 0.05, 2),
            ("tvar:0.01", "critical", None, 2),
        ],
    )
    def test_two_evaluations_per_rule(self, gtext, rule, param, evals, count_evals):
        g = parse_distortion(gtext)
        quad = DeficitFunctional.quadrature(g, lambda v: ultimate_ruin(LINE1, v))
        want = requirement(DeficitFunctional.closed_form(LINE1, g), rule, param)
        count_evals.clear()
        got = requirement(quad, rule, param)
        assert len(count_evals) == evals
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("line", [LINE1, LINE2, LINE3])
    @pytest.mark.parametrize("gtext", ["identity", "ph:0.5", "tvar:0.01", "tvar:0.3"])
    def test_roots_match_closed_forms_on_both_sides_of_the_edge(self, line, gtext):
        g = parse_distortion(gtext)
        quad = DeficitFunctional.quadrature(g, lambda v: ultimate_ruin(line, v))
        closed = DeficitFunctional.closed_form(line, g)
        d0 = closed(0.0)
        branches = set()
        for budget in (1e-4 * d0, 0.05 * d0, 0.5 * d0, 0.9 * d0):
            want = convex_measure(closed, budget)
            branches.add(want.branch)
            got = convex_measure(quad, budget)
            assert got.value == pytest.approx(want.value, rel=1e-10)
            assert got.residual <= 1e-10
        for margin in (1e-3, 0.05, 1.0, 10.0):
            want = proportional_measure(closed, margin)
            branches.add(want.branch)
            got = proportional_measure(quad, margin)
            assert got.value == pytest.approx(want.value, rel=1e-10)
            assert got.residual <= 1e-10
        if g.kind == "tvar":
            # roots left of the edge, on the slope -1 part, and right of it
            assert {"linear", "exponential", "tail"} <= branches

    def test_empirical_start_past_the_largest_sample(self, count_evals):
        # an exponential fit at zero decays more slowly than uniform
        # samples run out, so it would start where D is flat at 0; the
        # exact solve takes no start, only the residual's evaluation
        x = np.random.default_rng(5).uniform(0.0, 1.0, 500)
        for g in (identity(), proportional_hazard(0.5), tvar(0.1)):
            d = DeficitFunctional.empirical(g, x)
            for budget in (1e-3, 1e-6):
                count_evals.clear()
                r = convex_measure(d, budget)
                assert len(count_evals) <= 1
                assert r.value < x.max()
                assert d(r.value) == pytest.approx(budget, rel=1e-9)
                assert d(r.value * (1.0 - 1e-6)) > budget

    @pytest.mark.parametrize("g", [identity(), tvar(0.3)])
    @pytest.mark.parametrize("param", [1e-4, 0.01, 0.3])
    def test_pareto_tail_matches_brent(self, g, param):
        # at budget 1e-4 the slope is near -3e-6, so |f| <= abs_tol alone
        # would stop up to 3e-5 short of the root; at margin 1e-4 under
        # tvar:0.3 the root lies past 100
        quad = DeficitFunctional.quadrature(g, pareto_tail)
        tight = Tolerance(abs_tol=1e-15, rel_tol=1e-15)
        want = brent_root(lambda u: quad(u) - param, 0.0, 1000.0, tight)
        assert convex_measure(quad, param).value == pytest.approx(want, rel=1e-9)
        want = brent_root(lambda u: quad(u) - param * u, 0.0, 1000.0, tight)
        got = proportional_measure(quad, param).value
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize(
        "g", [identity(), proportional_hazard(0.5), tvar(0.3)], ids=lambda g: g.label()
    )
    def test_bounded_tail_restarts_from_the_kink(self, g):
        # psi runs out at 10 while the exponential fit at the kink never
        # does, so the fitted start of a small budget lands where D is
        # flat at 0 with slope 0, and the solve restarts from the kink
        quad = DeficitFunctional.quadrature(g, bounded_tail)
        tight = Tolerance(abs_tol=1e-15, rel_tol=1e-15)
        for budget in (1e-6, 1e-3, 0.5):
            got = convex_measure(quad, budget).value
            if g.kind == "identity":
                # D(u) = (10 - u)**2 / 20 on [0, 10]
                assert got == pytest.approx(10.0 - math.sqrt(20.0 * budget), rel=1e-9)
            want = brent_root(lambda u: quad(u) - budget, 0.0, 10.0, tight)
            assert got == pytest.approx(want, rel=1e-9)
        for margin in (1e-3, 0.1, 1.0):
            want = brent_root(lambda u: quad(u) - margin * u, 0.0, 10.0, tight)
            got = proportional_measure(quad, margin).value
            assert got == pytest.approx(want, rel=1e-9)


def bounded_tail(v):
    """P(M > v) = 1 - v/10 on [0, 10], a tail with bounded support."""
    return np.clip(1.0 - np.asarray(v, dtype=float) / 10.0, 0.0, 1.0)


class TestCriticalThreshold:
    def test_identity_level(self, d_id):
        assert critical_threshold(d_id) == pytest.approx(0.4345982085, abs=1e-9)

    def test_ph_level(self, d_ph):
        assert critical_threshold(d_ph) == pytest.approx(0.4013702628, abs=1e-9)

    def test_tvar_level(self, d_tv):
        assert critical_threshold(d_tv) == pytest.approx(0.0678387811, abs=1e-9)

    def test_separates_dominance(self, d_id, d_ph, d_tv):
        # below the threshold the proportional rule demands strictly
        # more than the coherent one, above it strictly less
        for d in (d_id, d_ph, d_tv):
            star = critical_threshold(d)
            base = coherent_measure(d).value
            assert proportional_measure(d, 0.9 * star).value > base
            assert proportional_measure(d, 1.1 * star).value < base
            assert proportional_measure(d, star).value == pytest.approx(
                base, rel=1e-9
            )

    def test_empirical_curve_supported(self, rng):
        d = DeficitFunctional.empirical(identity(), rng.exponential(2.0, 500))
        assert 0.0 < critical_threshold(d) < 1.0


class TestEarBenchmark:
    def test_levels(self):
        assert ear_convex_measure(LINE1, 5.0).value == pytest.approx(
            6.5916737320, abs=1e-9
        )
        assert ear_convex_measure(LINE1, 20.0).value == pytest.approx(
            -1.7260924347, abs=1e-9
        )
        assert ear_convex_measure(LINE1, 15.0).value == pytest.approx(0.0, abs=1e-12)

    def test_matches_occupation_time_oracle(self):
        # expected area of the path above u = integral over v > u of the
        # expected time spent above v.  Renewal argument: excursions above
        # v number a*exp(-b*v)/(1-a) on average (geometric restarts by
        # memorylessness) and each lasts mu/(c - lambda*mu) (Wald), so
        # the area decays at rate b from mu*a / ((1-a)(c-lambda*mu)b).
        lam, mu, c = 10.0, 1.0, 12.0
        a, b = 5.0 / 6.0, 1.0 / 6.0
        scale = mu * a / ((1.0 - a) * (c - lam * mu) * b)
        budget = 7.0
        oracle = bisect(lambda u: scale * math.exp(-b * u) - budget, -50.0, 100.0)
        assert ear_convex_measure(LINE1, budget).value == pytest.approx(
            oracle, abs=1e-8
        )

    def test_rejects_degenerate(self):
        with pytest.raises(DomainError):
            ear_convex_measure(ExponentialLine(0.0, 1.0, 1.0), 5.0)
        for bad in (0.0, math.nan):
            with pytest.raises(DomainError):
                ear_convex_measure(LINE1, bad)


class TestPremiumBound:
    def test_exceeds_mean_for_concave(self):
        r = premium_lower_bound(LINE1, proportional_hazard(0.5), 4000, seed=7)
        assert r.concave
        assert r.value > 10.0  # strictly above the expected claim rate
        assert r.std_error > 0.0

    def test_identity_recovers_claim_rate(self):
        r = premium_lower_bound(LINE1, identity(), 20000, seed=3)
        assert r.value == pytest.approx(10.0, rel=0.05)
        assert abs(r.value - 10.0) < 4.0 * r.std_error

    def test_reproducible(self):
        a = premium_lower_bound(LINE1, tvar(0.1), 2000, seed=11)
        b = premium_lower_bound(LINE1, tvar(0.1), 2000, seed=11)
        assert a == b

    def test_non_concave_flagged(self):
        from maxdeficit import var_step

        r = premium_lower_bound(LINE1, var_step(0.4), 1000, seed=5)
        assert not r.concave

    def test_quiet_line_costs_nothing(self):
        r = premium_lower_bound(
            ExponentialLine(0.0, 1.0, 1.0), identity(), 1000, seed=1
        )
        assert r.value == 0.0
        assert r.std_error == 0.0

    def test_rejects_small_samples(self):
        with pytest.raises(DomainError):
            premium_lower_bound(LINE1, identity(), 999, seed=0)


class TestCrossRuleOrdering:
    def test_convex_interpolates_coherent(self, d_id, d_ph, d_tv):
        # tiny budget forces more capital than D(0); budget D(0) gives 0
        for d in (d_id, d_ph, d_tv):
            d0 = d(0.0)
            assert convex_measure(d, d0).value == pytest.approx(0.0, abs=1e-9)
            assert convex_measure(d, 0.1 * d0).value > 0.0

    def test_stronger_distortion_needs_more_capital(self, d_id, d_ph):
        for rule in (
            lambda d: coherent_measure(d).value,
            lambda d: convex_measure(d, 2.0).value,
            lambda d: proportional_measure(d, 0.2).value,
        ):
            assert rule(d_ph) > rule(d_id)

    def test_result_is_frozen_record(self, d_id):
        r = coherent_measure(d_id)
        with pytest.raises(AttributeError):
            r.value = 0.0
