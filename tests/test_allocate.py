"""Reserve allocation: water-filling and aggregate-minimum solvers."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxdeficit import (
    AllocationResult,
    DEFAULT_TOL,
    aggregate_min,
    brent_root,
    DomainError,
    ExponentialLine,
    Tolerance,
    identity,
    invariance_check,
    line_from_ruin_constants,
    method1_exponential,
    method1_generic,
    method2_exact,
    method2_generic,
    method2_two_line,
    parse_distortion,
    proportional_hazard,
    psi_tilde,
    rho2_two_line,
    ruin_constants,
    simulate_max_loss,
    tail_integral,
    tvar,
    ultimate_ruin,
    var_step,
)
from maxdeficit import allocate
from tests.conftest import LINE1, LINE2, LINE3, counted

# the pair used throughout the aggregate-method checks: same zero-reserve
# ruin probability, very different decay rates
FAST = line_from_ruin_constants(0.9, 0.05)
SLOW = line_from_ruin_constants(0.9, 0.01)


def marginal_levels(lines, gammas, reserves):
    return [
        ultimate_ruin(line, u) ** (1.0 / g)
        for line, g, u in zip(lines, gammas, reserves)
    ]


def inclusion_exclusion(lines, reserves):
    """Identity-distorted pooled deficit: the integral over v >= 0 of
    1 - prod_k (1 - psi_k(u_k + v)), expanded over subsets of lines."""
    consts = [ruin_constants(line) for line in lines]
    total = 0.0
    for size in range(1, len(lines) + 1):
        for subset in itertools.combinations(range(len(lines)), size):
            term = math.prod(
                consts[i].a * math.exp(-consts[i].b * reserves[i]) for i in subset
            )
            rate = sum(consts[i].b for i in subset)
            total += (-1.0) ** (size + 1) * term / rate
    return total


def scalar_objective(lines, g, reserves):
    """The distorted pooled deficit by the psi_tilde route: quadrature
    of g(psi_tilde) at a tolerance relative to its size.  It shares the
    kernel with the solver but not the integrand or its gradient; the
    kernel itself is pinned against scipy in TestPooledPass."""
    if g.kind == "identity":
        return inclusion_exclusion(lines, reserves)
    f = lambda v: g(psi_tilde(lines, reserves, v))
    rough = tail_integral(f, 0.0)
    return tail_integral(f, 0.0, Tolerance(abs_tol=1e-11 * rough, rel_tol=1e-11))


def assert_no_better_neighbour(lines, g, total_u, reserves):
    """No vertex of the budget simplex and no move of 5 % of the budget
    between two lines beats the split by more than 1e-9 relative."""
    k = len(lines)
    step = 0.05 * total_u
    others = [np.eye(k)[i] * total_u for i in range(k)]
    for i, j in itertools.permutations(range(k), 2):
        if reserves[i] >= step:
            moved = np.array(reserves, dtype=float)
            moved[i] -= step
            moved[j] += step
            others.append(moved)
    mine = scalar_objective(lines, g, reserves)
    for other in others:
        value = scalar_objective(lines, g, other)
        assert mine <= value * (1.0 + 1e-9), (other, value, mine)


def assert_result_contract(lines, gammas, total_u, res):
    assert isinstance(res, AllocationResult)
    assert np.all(res.reserves >= 0.0)
    assert abs(res.reserves.sum() - total_u) <= 1e-9 * max(total_u, 1.0)
    levels = marginal_levels(lines, gammas, res.reserves)
    for k in range(len(lines)):
        if k in res.active:
            assert abs(levels[k] - res.threshold) <= 1e-8
        else:
            assert res.reserves[k] == 0.0
            assert levels[k] <= res.threshold + 1e-8


class TestProblemValidation:
    def test_rejects_bad_instances(self, lines):
        with pytest.raises(DomainError):
            method1_exponential((), 1.0)
        # a str or None budget once gave a bare TypeError, True split 1.0,
        # and a gamma "2" was read as 2.0; budgets past 2**1022 once
        # overflowed the sum of the reserves
        for bad in (-1.0, math.nan, math.inf, True, "5", None, 5e307, 1.7976931348623157e308):
            with pytest.raises(DomainError, match="total reserve"):
                method1_exponential(lines, bad)
        for bad in (0.5, math.nan, math.inf, True, "2", None):
            with pytest.raises(DomainError, match="penalty exponents"):
                method1_exponential(lines, 1.0, (1.0, bad, 1.0))
        with pytest.raises(DomainError, match="one penalty exponent per line"):
            method1_exponential(lines, 1.0, (1.0, 1.0))

    def test_takes_a_list_and_an_integer_budget(self, lines):
        res = method1_exponential(list(lines), np.int64(40))
        ref = method1_exponential(lines, 40.0)
        assert res.reserves.tolist() == ref.reserves.tolist()
        assert res.threshold == ref.threshold

    def test_defaults(self, lines):
        res = method1_exponential(lines, 10.0)
        ref = method1_exponential(lines, 10.0, (1.0, 1.0, 1.0))
        assert res.reserves.tolist() == ref.reserves.tolist()
        assert res.threshold == ref.threshold


class TestMethod1Exponential:
    @pytest.mark.parametrize(
        "total,expected",
        [
            (1.0, (1.0, 0.0, 0.0)),
            (10.0, (2.78238442, 7.21761558, 0.0)),
            (100.0, (5.30998554, 19.85562117, 74.83439329)),
        ],
    )
    def test_reference_splits(self, lines, total, expected):
        res = method1_exponential(lines, total)
        assert res.reserves == pytest.approx(expected, abs=1e-6)
        assert_result_contract(lines, (1.0, 1.0, 1.0), total, res)

    def test_penalized_split(self, lines):
        res = method1_exponential(lines, 100.0, (1.0, 1.0, 2.0))
        assert res.reserves == pytest.approx(
            (2.37240991, 5.16774300, 92.45984710), abs=1e-6
        )
        assert_result_contract(lines, (1.0, 1.0, 2.0), 100.0, res)

    def test_matches_threshold_bisection_oracle(self, lines):
        consts = [ruin_constants(l) for l in lines]

        def reserves_at(s):
            return [max(0.0, -math.log(s / k.a) / k.b) for k in consts]

        lo, hi = 1e-12, max(k.a for k in consts)
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if sum(reserves_at(mid)) > 37.5:
                lo = mid
            else:
                hi = mid
        oracle = reserves_at(math.sqrt(lo * hi))
        res = method1_exponential(lines, 37.5)
        assert res.reserves == pytest.approx(oracle, abs=1e-6)

    def test_zero_budget(self, lines):
        res = method1_exponential(lines, 0.0)
        assert np.all(res.reserves == 0.0)
        assert res.active == []
        assert res.threshold == pytest.approx(5.0 / 6.0, rel=1e-12)

    def test_keeps_budget_with_long_decay_lengths(self):
        # 1/b far longer than U: the water-filling sum misses U by far
        # more than rounding until it is rescaled
        lines = [
            ExponentialLine(0.016, 9.014, 1.0),
            ExponentialLine(0.0003, 1400.5912, 1.0),
            ExponentialLine(0.0243, 7.4005, 1.0),
            ExponentialLine(0.0324, 11.4847, 1.0),
        ]
        total = 0.00014555333
        res = method1_exponential(lines, total)
        assert len(res.active) == 1
        assert res.reserves.sum() == pytest.approx(total, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("total", [1e-300, 1e-20])
    def test_budget_below_rounding_goes_to_the_top_line(self, lines, total):
        res = method1_exponential(lines, total)
        assert list(res.reserves) == [total, 0.0, 0.0]
        assert res.active == [0]

    def test_monotone_with_nested_active_sets(self, lines):
        prev = np.zeros(3)
        prev_active = set()
        for total in (1.0, 5.0, 10.0, 20.0, 50.0, 100.0, 150.0):
            res = method1_exponential(lines, total)
            assert np.all(res.reserves >= prev - 1e-9)
            assert prev_active <= set(res.active)
            prev, prev_active = res.reserves, set(res.active)

    def test_quiet_line_gets_nothing(self):
        quiet = ExponentialLine(0.0, 1.0, 1.0)
        res = method1_exponential((LINE1, quiet), 5.0)
        assert res.reserves == pytest.approx((5.0, 0.0), abs=1e-9)
        with pytest.raises(DomainError):
            method1_exponential((quiet, quiet), 5.0)

    def test_objective_is_summed_deficit(self, lines):
        res = method1_exponential(lines, 10.0)
        direct = sum(
            k.a / k.b * math.exp(-k.b * u)
            for k, u in zip([ruin_constants(l) for l in lines], res.reserves)
        )
        assert res.objective == pytest.approx(direct, rel=1e-12)


class TestMethod1Generic:
    def test_matches_exponential_solver(self, lines):
        marginals = [
            (lambda u, line=line: ultimate_ruin(line, u)) for line in lines
        ]
        res = method1_generic(marginals, 100.0)
        closed = method1_exponential(lines, 100.0)
        assert res.reserves == pytest.approx(closed.reserves, abs=1e-6)

    @pytest.mark.parametrize(
        "g, total",
        [
            (proportional_hazard(0.5), 40.0),
            (proportional_hazard(0.8), 100.0),
            (identity(), 100.0),
        ],
    )
    def test_log_level_solve_is_exact_in_few_calls(self, lines, g, total):
        calls = []
        marginals = []
        for line in lines:
            m, seen = counted(lambda u, line=line: g(ultimate_ruin(line, u)))
            marginals.append(m)
            calls.append(seen)

        res = method1_generic(marginals, total)
        # per line: the grid, the level at the fitted split, which
        # certifies it, and one objective pass
        assert sum(map(len, calls)) <= 12
        # (a exp(-b u))**p is the marginal level of penalty exponent 1/p
        p = 1.0 if g.kind == "identity" else g.param
        closed = method1_exponential(lines, total, (1.0 / p,) * 3)
        assert res.reserves == pytest.approx(closed.reserves, rel=1e-14)
        assert res.threshold == pytest.approx(closed.threshold, rel=1e-14)
        assert res.kkt_residual <= 1e-14
        assert res.objective == pytest.approx(closed.objective, rel=1e-10)

    def test_objective_is_one_tail_integral(self, lines, monkeypatch):
        passes = []
        inner = allocate.tail_integral

        def one_pass(f, a, *rest):
            passes.append(a)
            return inner(f, a, *rest)

        monkeypatch.setattr(allocate, "tail_integral", one_pass)
        marginals = [(lambda u, line=line: ultimate_ruin(line, u)) for line in lines]
        for total in (0.0, 100.0):
            passes.clear()
            method1_generic(marginals, total)
            assert passes == [0.0]

    @pytest.mark.parametrize(
        "total, most", [(500.0, 170), (1000.0, 100), (2e4, 12), (5e4, 60)]
    )
    def test_tvar_plateaus_take_the_bracketed_solve(self, lines, total, most):
        # min(psi / alpha, 1) is flat at 1 up to each line's edge reserve,
        # which the grid fits skip; past the edges the lines water-fill
        # as a_k / alpha * exp(-b_k u), which sets the exact split
        alpha = 0.1
        calls = []
        marginals = []
        for line in lines:
            m, seen = counted(lambda u, line=line: tvar(alpha)(ultimate_ruin(line, u)))
            marginals.append(m)
            calls.append(seen)
        res = method1_generic(marginals, total)
        # the fits past the edges are exact, so the fitted split is
        # certified at its first levels: 9 calls up to U = 2e4; at 5e4 the
        # second grid point underflows, the fit is a chord from the
        # plateau, and Newton steps take 51 calls to a threshold of 5.1e-92
        assert sum(map(len, calls)) <= most
        assert res.kkt_residual <= 1e-12
        consts = [ruin_constants(line) for line in lines]
        w = np.array([1.0 / k.b for k in consts])
        log_tops = np.array([math.log(k.a / alpha) for k in consts])
        log_s = (w @ log_tops - total) / w.sum()
        assert res.reserves == pytest.approx(w * (log_tops - log_s), rel=1e-10)
        assert res.threshold == pytest.approx(math.exp(log_s), rel=1e-10)

    def test_bracketed_solve_reuses_its_evaluations(self, lines):
        # each step evaluates every level once and no level twice
        calls = []
        marginals = []
        for line in lines:
            m, seen = counted(lambda u, line=line: tvar(0.1)(ultimate_ruin(line, u)))
            marginals.append(m)
            calls.append(seen)
        res = method1_generic(marginals, 500.0)
        assert sum(np.ndim(u) == 0 for seen in calls for u in seen) <= 82
        assert res.reserves.sum() == pytest.approx(500.0, rel=1e-14)

    @pytest.mark.parametrize("total", [5.0, 40.0, 100.0])
    def test_shared_plateau_holds_the_budget(self, lines, total):
        # tvar:0.1 keeps every line at level 1 up to its edge reserve, and
        # the edges add up to 391.5 > total: no level s < 1 spends the
        # budget, and any split inside the plateaus is optimal
        alpha = 0.1
        calls = []
        marginals = []
        for line in lines:
            m, seen = counted(lambda u, line=line: tvar(alpha)(ultimate_ruin(line, u)))
            marginals.append(m)
            calls.append(seen)
        res = method1_generic(marginals, total)
        # the fits enter the plateaus with jumps that share the budget,
        # certified at the first levels; the objective pass takes most.
        # Its panels bisect at each line's tvar kink, one call per split
        # span, and three kinks in one panel split apart, so the bound is
        # the measured count, not a count per depth
        most = {5.0: 183, 40.0: 171, 100.0: 180}[total]
        assert sum(map(len, calls)) <= most
        assert res.threshold == 1.0
        consts = [ruin_constants(line) for line in lines]
        edges = [math.log(k.a / alpha) / k.b for k in consts]
        assert sum(edges) > total
        assert res.reserves.sum() == pytest.approx(total, rel=1e-12)
        assert np.all(res.reserves <= np.array(edges) * (1.0 + 1e-12))
        # on a plateau D_k(u) = D_k(0) - u, and sum D_k(0) = 627.52...
        assert res.objective == pytest.approx(627.5227632505972 - total, rel=1e-9)

    def test_pareto_marginals_take_the_bracketed_solve(self):
        # (1 + u)**-n is no exponential: Newton steps leave the fitted split
        powers = (3.0, 4.0, 5.0)
        calls = []
        marginals = []
        for n in powers:
            m, seen = counted(lambda u, n=n: (1.0 + np.asarray(u)) ** -n)
            marginals.append(m)
            calls.append(seen)
        res = method1_generic(marginals, 5.0)
        assert sum(map(len, calls)) <= 88
        assert res.kkt_residual <= 1e-12
        assert res.reserves.sum() == pytest.approx(5.0, rel=1e-12)
        levels = [(1.0 + u) ** -n for u, n in zip(res.reserves, powers)]
        assert levels == pytest.approx([res.threshold] * 3, rel=1e-12)
        tails = [(1.0 + u) ** (1.0 - n) / (n - 1.0) for u, n in zip(res.reserves, powers)]
        assert res.objective == pytest.approx(sum(tails), rel=1e-9)

    @pytest.mark.parametrize("g", [identity(), proportional_hazard(0.5)])
    def test_small_objectives_keep_their_precision(self, lines, g):
        # the deficit at U = 2e4 is 1.9e-35 under identity and 1.4e-16
        # under ph:0.5, far below an absolute quadrature tolerance of 1e-10
        marginals = [(lambda u, line=line: g(ultimate_ruin(line, u))) for line in lines]
        res = method1_generic(marginals, 2e4)
        p = 1.0 if g.kind == "identity" else g.param
        closed = method1_exponential(lines, 2e4, (1.0 / p,) * 3)
        assert res.objective == pytest.approx(closed.objective, rel=1e-12, abs=0.0)
        assert res.reserves == pytest.approx(closed.reserves, rel=0.0, abs=1e-12 * 2e4)

    @pytest.mark.parametrize("total", [2.0**1022, 9e307, 1e308])
    def test_budget_past_half_the_largest_float(self, lines, total):
        # twice the budget, the grid's span, once overflowed to inf and
        # gave a NaN grid, reported as a NaN reserve; budgets now end at
        # 2**1022, where the grid ends at 2**1023 and the levels underflow
        marginals = [(lambda u, line=line: ultimate_ruin(line, u)) for line in lines]
        text = f"split of {total}" if total <= 2.0**1022 else "total reserve"
        with pytest.raises(DomainError, match=re.escape(text)):
            method1_generic(marginals, total)

    def test_levels_below_the_least_float_are_a_domain_error(self, lines):
        # identity at U = 2e5 equalises the levels at exp(-847); the
        # message names the underflow, as any failed bracket is a
        # DomainError too
        marginals = [(lambda u, line=line: ultimate_ruin(line, u)) for line in lines]
        with pytest.raises(DomainError, match="underflows"):
            method1_generic(marginals, 2e5)

    def test_single_line_takes_everything(self):
        res = method1_generic([lambda u: ultimate_ruin(LINE1, u)], 7.0)
        assert res.reserves == pytest.approx([7.0], abs=1e-9)
        assert res.active == [0]

    def test_identical_lines_split_equally(self):
        marginals = [lambda u: ultimate_ruin(LINE2, u)] * 2
        res = method1_generic(marginals, 12.0)
        assert res.reserves == pytest.approx([6.0, 6.0], abs=1e-7)

    def test_rejects_increasing_marginal(self):
        with pytest.raises(DomainError):
            method1_generic([lambda u: u / (1.0 + u)], 1.0)

    def test_rejects_marginal_that_is_not_finite(self):
        # NaN compares False, so it would pass the monotonicity test
        def broken(u):
            u = np.asarray(u)
            return np.where(u > 3.0, math.nan, np.exp(-u))

        with pytest.raises(DomainError, match="not finite"):
            method1_generic([broken, lambda u: ultimate_ruin(LINE1, u)], 2.0)

    def test_rejects_vanishing_marginals(self):
        with pytest.raises(DomainError):
            method1_generic([lambda u: 0.0 * u, lambda u: 0.0 * u], 1.0)

    def test_rejects_bad_budget(self):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                method1_generic([lambda u: ultimate_ruin(LINE1, u)], bad)

    def test_zero_budget_reports_marginal_deficits(self):
        res = method1_generic([lambda u: ultimate_ruin(LINE1, u)], 0.0)
        assert np.all(res.reserves == 0.0)
        assert res.objective == pytest.approx(5.0, rel=1e-7)


class TestRho2:
    def test_reference_value(self):
        assert rho2_two_line(FAST, SLOW, 0.0, 30.0) == pytest.approx(
            74.67259388, abs=1e-6
        )

    def test_limits(self):
        assert rho2_two_line(FAST, SLOW, 1e7, 1e7) == pytest.approx(0.0, abs=1e-12)
        # distant second line leaves the first line's own deficit
        lone = rho2_two_line(FAST, SLOW, 4.0, 1e7)
        assert lone == pytest.approx(18.0 * math.exp(-0.2), rel=1e-9)

    def test_never_exceeds_summed_marginals(self, rng):
        for _ in range(50):
            u1, u2 = rng.uniform(0.0, 80.0, size=2)
            separate = 18.0 * math.exp(-0.05 * u1) + 90.0 * math.exp(-0.01 * u2)
            pooled = rho2_two_line(FAST, SLOW, u1, u2)
            assert pooled <= separate + 1e-12
            assert pooled > 0.0

    def test_rejects_negative_reserves(self):
        for u1, u2 in ((-1.0, 5.0), (math.nan, 5.0), (5.0, math.nan)):
            with pytest.raises(DomainError):
                rho2_two_line(FAST, SLOW, u1, u2)

    def test_monte_carlo_agreement(self):
        # rho2 is the mean pooled shortfall E[max_k (M_k - u_k)^+]; the
        # horizons leave restart mass under 3e-3 of a 1/b overshoot, far
        # inside the Monte Carlo band
        u1, u2 = 0.0, 30.0
        m1 = simulate_max_loss(FAST, 1500.0, 3000, seed=910).samples
        m2 = simulate_max_loss(SLOW, 6000.0, 3000, seed=911).samples
        deficit = np.maximum(np.maximum(m1 - u1, m2 - u2), 0.0)
        se = deficit.std(ddof=1) / math.sqrt(deficit.size)
        assert abs(deficit.mean() - 74.67259388) < 3.0 * se


class TestMethod2TwoLine:
    @pytest.mark.parametrize(
        "total,expected",
        [
            (30.0, (0.0, 30.0)),
            (60.0, (3.08476472, 56.91523528)),
            (120.0, (16.02632568, 103.97367432)),
        ],
    )
    def test_reference_splits(self, total, expected):
        res = method2_two_line(FAST, SLOW, total)
        assert res.reserves == pytest.approx(expected, abs=1e-6)
        assert res.reserves.sum() == pytest.approx(total, abs=1e-9 * total)
        assert res.objective == pytest.approx(
            rho2_two_line(FAST, SLOW, *res.reserves), rel=1e-12
        )

    def test_corner_with_the_whole_budget_on_line_one(self):
        # the slow line's reduction still exceeds the other's with all of
        # U on it, so the gap keeps its sign up to u1 = U
        dull = line_from_ruin_constants(0.1, 1.0)
        res = method2_two_line(SLOW, dull, 5.0)
        assert res.reserves.tolist() == [5.0, 0.0]
        assert res.active == [0]
        assert res.kkt_residual == 0.0
        grid = np.linspace(0.0, 5.0, 1001)
        values = [rho2_two_line(SLOW, dull, x, 5.0 - x) for x in grid]
        assert res.objective == min(values)

    def test_corner_keeps_dominated_line_empty(self):
        res = method2_two_line(FAST, SLOW, 30.0)
        assert res.active == [1]
        # at a corner the idle line's reduction may not exceed the
        # active one's, so the certificate stays at zero
        assert res.kkt_residual == 0.0

    def test_interior_equalizes_reductions(self):
        res = method2_two_line(FAST, SLOW, 60.0)
        assert res.active == [0, 1]
        assert res.kkt_residual <= 1e-8

    def test_beats_dense_budget_grid(self):
        total = 10.0
        res = method2_two_line(FAST, SLOW, total)
        grid = np.linspace(0.0, total, 10_001)
        values = [rho2_two_line(FAST, SLOW, x, total - x) for x in grid]
        assert res.objective <= min(values) + 1e-9

    def test_zero_budget(self):
        res = method2_two_line(FAST, SLOW, 0.0)
        assert np.all(res.reserves == 0.0)

    def test_rejects_negative_budget(self):
        for bad in (-2.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                method2_two_line(FAST, SLOW, bad)

    def test_large_budget_reaches_first_order_condition(self):
        # both reductions are near 1e-10 at this budget, so only their
        # log gap still locates the optimum
        busy = ExponentialLine(9.307, 1.393, 22.2)
        calm = ExponentialLine(0.303, 0.664, 0.338)
        res = method2_two_line(busy, calm, 125.89)
        assert res.reserves[0] == pytest.approx(84.4736, abs=1e-4)
        assert res.kkt_residual < 1e-8


class TestPsiTilde:
    def test_single_line_reduces_to_ruin(self):
        for v in (0.0, 3.0, 11.0):
            assert psi_tilde([LINE1], [2.0], v) == pytest.approx(
                ultimate_ruin(LINE1, 2.0 + v), rel=1e-12
            )

    def test_two_lines_expand_by_inclusion_exclusion(self):
        p1 = ultimate_ruin(FAST, 1.0 + 4.0)
        p2 = ultimate_ruin(SLOW, 2.0 + 4.0)
        assert psi_tilde([FAST, SLOW], [1.0, 2.0], 4.0) == pytest.approx(
            p1 + p2 - p1 * p2, rel=1e-12
        )

    def test_certain_component_dominates(self):
        # shifting the barrier below zero makes a component certain
        assert psi_tilde([FAST, SLOW], [0.0, 0.0], -1.0) == 1.0

    def test_tiny_tail_keeps_relative_accuracy(self, lines):
        reserves = (33.0, 33.0, 34.0)
        v = 9000.0
        # the pairwise terms are below 1e-40, so the sum is exact here
        separate = sum(ultimate_ruin(l, u + v) for l, u in zip(lines, reserves))
        assert separate == pytest.approx(1.2075e-20, rel=1e-4, abs=0.0)
        assert psi_tilde(lines, reserves, v) == pytest.approx(
            separate, rel=1e-12, abs=0.0
        )

    def test_pooled_tail_quadrature_stays_cheap(self, lines):
        # rounding noise in the pooled tail, raised to a small power,
        # drives adaptive quadrature to its depth cap; a smooth tail
        # takes about 900 nodes
        g = proportional_hazard(0.5)
        nodes = 0

        def integrand(v):
            nonlocal nodes
            nodes += len(v)
            if nodes > 20_000:
                raise RuntimeError("pooled tail integral exceeded 20,000 nodes")
            return g(psi_tilde(lines, (33.0, 33.0, 34.0), v))

        tail_integral(integrand, 0.0)
        assert nodes < 2_000

    def test_array_matches_floats(self, lines):
        v = np.array([-2.0, 0.0, 3.0, 11.0, 9000.0])
        got = psi_tilde(lines, (1.0, 2.0, 3.0), v)
        assert got.shape == v.shape
        for x, want in zip(v, got):
            assert psi_tilde(lines, (1.0, 2.0, 3.0), float(x)) == pytest.approx(
                want, rel=1e-15, abs=0.0
            )

    def test_validation(self):
        with pytest.raises(DomainError):
            psi_tilde([FAST, SLOW], [1.0], 0.0)
        for bad in (-1.0, math.nan):
            with pytest.raises(DomainError):
                psi_tilde([FAST, SLOW], [1.0, bad], 0.0)


class TestMethod2Generic:
    def test_matches_two_line_closed_form(self):
        res = method2_generic([FAST, SLOW], identity(), 60.0)
        assert res.reserves == pytest.approx((3.08476472, 56.91523528), abs=1e-3)
        assert res.kkt_residual <= 1e-4

    def test_symmetric_lines_split_equally(self):
        res = method2_generic([FAST, FAST], proportional_hazard(0.5), 40.0)
        assert res.reserves == pytest.approx((20.0, 20.0), abs=1e-6)

    def test_single_line_takes_everything(self):
        res = method2_generic([SLOW], identity(), 25.0)
        assert res.reserves == pytest.approx([25.0])
        assert res.active == [0]

    def test_zero_budget(self):
        res = method2_generic([FAST, SLOW], identity(), 0.0)
        assert np.all(res.reserves == 0.0)
        assert res.active == []

    @pytest.mark.parametrize("g", [identity(), proportional_hazard(0.5)])
    def test_single_line_reports_its_marginal_reduction(self, g):
        # F(u) = psi(u)**p / (p b) on one line, so -F'(u) = psi(u)**p
        res = method2_generic([SLOW], g, 25.0)
        assert res.threshold == pytest.approx(
            ultimate_ruin(SLOW, 25.0) ** g.primitive_pieces[1], rel=1e-8
        )

    @pytest.mark.parametrize("total", [1e-17, 1e-20, 1e-300])
    def test_budget_below_rounding_of_the_gradient_step(self, lines, total):
        # u - grad / |grad| rounds every reserve away: the split is the
        # one at 1e-16, all of U on the third line
        g = proportional_hazard(0.7)
        want = method2_generic(lines, g, 1e-16)
        res = method2_generic(lines, g, total)
        assert res.reserves / total == pytest.approx([0.0, 0.0, 1.0], abs=1e-15)
        assert want.reserves / 1e-16 == pytest.approx([0.0, 0.0, 1.0], abs=1e-15)
        assert res.active == want.active == [2]
        assert math.isfinite(res.threshold)
        assert res.threshold == pytest.approx(want.threshold, rel=1e-12)
        assert res.objective == pytest.approx(want.objective, rel=1e-12)

    def test_rejects_nonconcave_distortion(self):
        with pytest.raises(DomainError):
            method2_generic([FAST, SLOW], var_step(0.4), 10.0)

    def test_rejects_negative_budget(self):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                method2_generic([FAST, SLOW], identity(), bad)


class TestPooledPass:
    """The objective and gradient of the aggregate method, from one
    vectorised quadrature pass."""

    @staticmethod
    def constants(lines):
        consts = [ruin_constants(line) for line in lines]
        return np.array([c.a for c in consts]), np.array([c.b for c in consts])

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_identity_matches_inclusion_exclusion(self, rng, k):
        for _ in range(5):
            lines = [
                line_from_ruin_constants(rng.uniform(0.1, 0.95), rng.uniform(0.01, 1.0))
                for _ in range(k)
            ]
            u = rng.uniform(0.0, 40.0, size=k)
            a, b = self.constants(lines)
            got, _, _ = allocate._pooled_deficit(a, b, identity(), u, DEFAULT_TOL)
            assert got == pytest.approx(inclusion_exclusion(lines, u), rel=1e-12)

    @pytest.mark.parametrize(
        "g", [proportional_hazard(0.3), proportional_hazard(0.8), tvar(0.05), tvar(0.3)]
    )
    def test_distorted_matches_scalar_quadrature(self, lines, g):
        u = np.array([3.0, 12.0, 45.0])
        a, b = self.constants(lines)
        got, _, _ = allocate._pooled_deficit(a, b, g, u, DEFAULT_TOL)
        scalar = tail_integral(lambda v: g(psi_tilde(lines, u, v)), 0.0)
        assert got == pytest.approx(scalar, rel=1e-9)

    @pytest.mark.parametrize(
        "g,u",
        [
            (identity(), (3.0, 12.0, 45.0)),
            (proportional_hazard(0.6), (3.0, 12.0, 45.0)),
            # psi_tilde(u, 0) is 0.84 and 0.94 here, so the tvar kink v*
            # sits inside the integral and moves with every reserve
            (tvar(0.3), (3.0, 12.0, 45.0)),
            (tvar(0.05), (1.0, 2.0, 5.0)),
        ],
    )
    def test_gradient_matches_central_differences(self, lines, g, u):
        u = np.array(u)
        a, b = self.constants(lines)
        _, grad, _ = allocate._pooled_deficit(a, b, g, u, DEFAULT_TOL)
        tight = Tolerance(abs_tol=1e-13, rel_tol=1e-13)
        h = 1e-4
        numeric = np.empty(len(lines))
        for i in range(len(lines)):
            bump = np.zeros(len(lines))
            bump[i] = h
            up, _, _ = allocate._pooled_deficit(a, b, g, u + bump, tight)
            down, _, _ = allocate._pooled_deficit(a, b, g, u - bump, tight)
            numeric[i] = (up - down) / (2.0 * h)
        # rounding in F (about 1e-16 of it) limits the differences of
        # components far smaller than the largest
        assert grad == pytest.approx(
            numeric, rel=1e-6, abs=1e-7 * float(np.max(np.abs(numeric)))
        )

    @pytest.mark.parametrize(
        "g,u",
        [
            (identity(), (3.0, 12.0, 45.0)),
            # the tvar edge v* sits past 0 here, and its move adds a term
            (tvar(0.05), (1.0, 2.0, 5.0)),
            (tvar(0.3), (3.0, 12.0, 45.0)),
        ],
    )
    def test_hessian_matches_quadrature_derivatives(self, lines, g, u):
        u = np.array(u)
        a, b = self.constants(lines)
        _, _, hess = allocate._pooled_deficit(a, b, g, u, DEFAULT_TOL)
        _, _, want = quadrature_derivatives(lines, g, u)
        assert hess == pytest.approx(want, rel=1e-9, abs=1e-9 * np.max(np.abs(want)))

    @pytest.mark.parametrize("g", [proportional_hazard(0.3), proportional_hazard(0.8)])
    def test_hessian_matches_central_differences(self, lines, g):
        u = np.array([3.0, 12.0, 45.0])
        a, b = self.constants(lines)
        _, _, hess = allocate._pooled_deficit(a, b, g, u, DEFAULT_TOL)
        tight = Tolerance(abs_tol=1e-13, rel_tol=1e-13)
        h = 1e-4
        numeric = np.empty((3, 3))
        for i in range(3):
            bump = np.zeros(3)
            bump[i] = h
            _, up, _ = allocate._pooled_deficit(a, b, g, u + bump, tight)
            _, down, _ = allocate._pooled_deficit(a, b, g, u - bump, tight)
            numeric[i] = (up - down) / (2.0 * h)
        assert hess == pytest.approx(
            numeric, rel=1e-6, abs=1e-7 * float(np.max(np.abs(numeric)))
        )

    def test_solver_calls_no_scalar_quadrature(self, lines, monkeypatch):
        # every quadrature in a solve samples the objective, the K
        # gradient integrands and the K by K Hessian together, and none
        # goes through psi_tilde
        psi_calls = 0
        rows = set()
        psi_original = allocate.psi_tilde
        tail_original = allocate.tail_integral

        def counted_psi(*args):
            nonlocal psi_calls
            psi_calls += 1
            return psi_original(*args)

        def recorded_tail(f, *args):
            def sampled(v):
                out = f(v)
                rows.add(np.shape(out)[:-1])
                return out

            return tail_original(sampled, *args)

        monkeypatch.setattr(allocate, "psi_tilde", counted_psi)
        monkeypatch.setattr(allocate, "tail_integral", recorded_tail)
        res = method2_generic(lines, proportional_hazard(0.8), 100.0)
        assert res.reserves.sum() == pytest.approx(100.0)
        k = len(lines)
        assert psi_calls == 0
        assert rows == {(k + 1 + k * k,)}

    @pytest.mark.parametrize("g", [proportional_hazard(0.8), tvar(0.1)])
    def test_one_integrand_call_per_pass(self, lines, g, monkeypatch):
        # the pooled tail is smooth past start, so one call samples every
        # panel and nothing is bisected, not even at the tvar kink v*
        passes = []
        tail_original = allocate.tail_integral

        def counted_tail(f, start, *args):
            calls = 0

            def sampled(v):
                nonlocal calls
                calls += 1
                return f(v)

            out = tail_original(sampled, start, *args)
            passes.append((start, calls))
            return out

        monkeypatch.setattr(allocate, "tail_integral", counted_tail)
        # at 100 the tvar split is a corner that one pass certifies
        total = 400.0 if g.kind == "tvar" else 100.0
        res = method2_generic(lines, g, total)
        assert res.reserves.sum() == pytest.approx(total)
        assert len(passes) > 1
        assert all(calls == 1 for _, calls in passes)
        if g.kind == "tvar":
            assert all(start > 0.0 for start, _ in passes)

    @pytest.mark.parametrize(
        "u",
        [
            (3.0, 12.0, 45.0),
            # the kink v* moves with every reserve here
            (1.0, 2.0, 5.0),
        ],
    )
    def test_tvar_pass_matches_scalar_quadrature(self, lines, u):
        # F against tail_integral of g(psi~) from 0, and each dF/du_k
        # against tail_integral of g'(psi~) d psi~/d u_k from the root of
        # psi~ = alpha, on the psi_tilde route with g's own slope and no
        # clamp, so the slope's jump at v* is left to the kernel to bisect
        g = tvar(0.1)
        u = np.array(u)
        a, b = self.constants(lines)
        got, grad, _ = allocate._pooled_deficit(a, b, g, u, DEFAULT_TOL)
        tail = lambda v: psi_tilde(lines, u, v)
        assert got == pytest.approx(tail_integral(lambda v: g(tail(v)), 0.0), rel=1e-9)
        tight = Tolerance(abs_tol=1e-15, rel_tol=1e-15)
        start = brent_root(lambda v: tail(v) - g.param, 0.0, 2000.0, tight)
        for k, line in enumerate(lines):

            def slope(v, k=k, line=line):
                psi = ultimate_ruin(line, u[k] + v)
                _, g1, _ = g.derivatives(tail(v))
                return g1 * -b[k] * psi * (1.0 - tail(v)) / (1.0 - psi)

            assert grad[k] == pytest.approx(tail_integral(slope, start), rel=1e-9)

    @pytest.mark.parametrize(
        "g", [proportional_hazard(0.5), proportional_hazard(0.8), tvar(0.3)]
    )
    def test_objective_matches_scipy_quad(self, lines, g):
        # an oracle outside the package, since the psi_tilde route of the
        # other tests runs on the solver's own quadrature kernel
        integrate = pytest.importorskip("scipy.integrate")
        optimize = pytest.importorskip("scipy.optimize")
        u = np.array([3.0, 12.0, 45.0])
        a, b = self.constants(lines)
        got, _, _ = allocate._pooled_deficit(a, b, g, u, DEFAULT_TOL)
        tail = lambda v: psi_tilde(lines, u, v)
        start = 0.0
        if g.kind == "tvar":
            # g is 1 until the pooled tail falls to alpha at v*
            start = optimize.brentq(
                lambda v: tail(v) - g.param, 0.0, 200.0, xtol=1e-15, rtol=1e-15
            )
        rest, _ = integrate.quad(
            lambda v: g(tail(v)), start, math.inf, epsabs=0.0, epsrel=1e-13, limit=200
        )
        assert got == pytest.approx(start + rest, rel=1e-12, abs=0.0)


# budgets that leave a small pooled deficit: with absolute tolerances the
# solver took the equal split as optimal or ran out of steps
SMALL_DEFICIT_CASES = [
    ([(0.8216, 0.3048), (0.4080, 0.7416)], "ph:0.8", 111.55),
    ([(0.9444, 0.3554), (0.2707, 0.2553)], "ph:0.9", 125.64),
    ([(0.8864, 0.5421), (0.4895, 0.4660), (0.5222, 0.2395)], "identity", 145.12),
    ([(0.6044, 0.1565), (0.3536, 0.7119)], "ph:0.9", 145.02),
    # the deficit falls from 1e-10 at the equal split to 4e-15 at the
    # optimum, so a tolerance or a scale fixed at the start leaves the
    # marginal reductions far from equal
    ([(0.7103, 0.4053), (0.3979, 0.9545)], "tvar:0.05", 130.09),
    # the optimum empties the first line; a stationarity test that
    # ignores the active set stopped with 6.5e-7 left on it
    ([(0.8447, 0.6444), (0.2544, 0.9701), (0.2673, 0.9668), (0.4257, 0.0705)],
     "tvar:0.05", 25.727),
]


class TestScaleFreeTolerances:
    @pytest.mark.parametrize("ab,spec,total", SMALL_DEFICIT_CASES)
    def test_small_deficit_reaches_optimum(self, ab, spec, total):
        lines = [line_from_ruin_constants(a, b) for a, b in ab]
        g = parse_distortion(spec)
        res = method2_generic(lines, g, total)
        assert res.reserves.sum() == pytest.approx(total, rel=1e-12)
        if len(res.active) >= 2:
            assert res.kkt_residual <= 1e-5
        assert res.objective == pytest.approx(
            scalar_objective(lines, g, res.reserves), rel=1e-9
        )
        assert_no_better_neighbour(lines, g, total, res.reserves)


@st.composite
def aggregate_instances(draw):
    k = draw(st.integers(2, 4))
    ab = [
        (draw(st.floats(0.1, 0.95)), draw(st.floats(0.05, 1.0))) for _ in range(k)
    ]
    g = draw(
        st.one_of(
            st.just(identity()),
            st.floats(0.3, 0.9).map(proportional_hazard),
            st.sampled_from([0.05, 0.3]).map(tvar),
        )
    )
    total = draw(st.floats(1.0, 150.0))
    return [line_from_ruin_constants(a, b) for a, b in ab], g, total


class TestAggregateProperties:
    @settings(max_examples=12, derandomize=True, deadline=None, database=None)
    @given(aggregate_instances())
    def test_split_is_feasible_and_locally_optimal(self, instance):
        lines, g, total = instance
        res = method2_generic(lines, g, total)
        assert np.all(res.reserves >= 0.0)
        assert res.reserves.sum() == pytest.approx(total, rel=1e-12)
        assert_no_better_neighbour(lines, g, total, res.reserves)
        if len(res.active) >= 2:
            assert res.kkt_residual <= 1e-2


def quadrature_derivatives(lines, g, u):
    """F, grad F and the Hessian of the identity or tvar pooled deficit by
    tail_integral on the psi_tilde route, from the tvar edge found by
    brent_root; the Hessian adds the edge's move, which differentiating
    the lower limit of the gradient integrals gives."""
    alpha = g.param if g.kind == "tvar" else 1.0
    k = len(lines)
    b = np.array([ruin_constants(line).b for line in lines])
    tail = lambda v: psi_tilde(lines, u, v)
    start = 0.0
    if tail(0.0) > alpha:
        tight = Tolerance(abs_tol=1e-15, rel_tol=1e-15)
        start = brent_root(lambda v: tail(v) - alpha, 0.0, 4000.0, tight)

    def ruin(v):
        # psi_k(u_k + v), one row per line, and the pooled survival
        psi = np.array([ultimate_ruin(line, uk + v) for line, uk in zip(lines, u)])
        return psi, 1.0 - tail(v)

    def integrand(v):
        psi, survive = ruin(v)
        dtail = -b[:, None] * psi * survive / (1.0 - psi)
        cross = dtail[:, None, :] * dtail[None, :, :] / survive
        cross[range(k), range(k)] = b[:, None] * dtail
        return np.vstack((tail(v)[None, :], dtail, -cross.reshape(k * k, -1)))

    rough = tail_integral(integrand, start)
    scale = np.maximum(np.abs(rough), 1e-300)
    out = np.array(
        [
            tail_integral(
                lambda v, i=i: integrand(v)[i],
                start,
                Tolerance(abs_tol=1e-13 * scale[i], rel_tol=1e-13),
            )
            for i in range(1 + k + k * k)
        ]
    )
    f = start + out[0] / alpha
    grad = out[1 : 1 + k] / alpha
    hess = out[1 + k :].reshape(k, k) / alpha
    if start > 0.0:
        psi, _ = ruin(start)
        p = -b * psi * (1.0 - alpha) / (1.0 - psi)
        hess = hess + np.outer(p, p) / p.sum() / alpha
    return f, grad, hess


def cap_lines(a_scale):
    """_EXACT_MAX_LINES lines with zero-reserve ruin near a_scale."""
    k = allocate._EXACT_MAX_LINES
    return [
        line_from_ruin_constants(a_scale * (1.0 - 0.001 * i), 0.05 + 0.08 * i)
        for i in range(k)
    ]


class TestExactPass:
    """The inclusion-exclusion objective, gradient and Hessian of the
    exact aggregate route against quadrature of the pooled tail."""

    @pytest.mark.parametrize(
        "case,g,u",
        [
            ("standard", identity(), (3.0, 12.0, 45.0)),
            # psi~(u, 0) is 0.94, so the tvar edge v* sits past 0
            ("standard", tvar(0.05), (1.0, 2.0, 5.0)),
            ("standard", tvar(0.3), (3.0, 12.0, 45.0)),
            # a_k near 1 and small reserves: the alternating sum cancels most
            ("cap", identity(), tuple(0.1 * i for i in range(12))),
            ("cap", tvar(0.1), tuple(1.0 + 0.5 * i for i in range(12))),
        ],
    )
    def test_matches_quadrature(self, lines, case, g, u):
        lines = list(lines) if case == "standard" else cap_lines(0.999)
        u = np.array(u)
        consts = [ruin_constants(line) for line in lines]
        a = np.array([c.a for c in consts])
        b = np.array([c.b for c in consts])
        alpha = g.param if g.kind == "tvar" else 1.0
        f, grad, hess = allocate._exact_pass(a, b, alpha)(u)
        want_f, want_grad, want_hess = quadrature_derivatives(lines, g, u)
        assert f == pytest.approx(want_f, rel=1e-10)
        assert grad == pytest.approx(
            want_grad, rel=1e-10, abs=1e-10 * np.max(np.abs(want_grad))
        )
        assert hess == pytest.approx(
            want_hess, rel=1e-10, abs=1e-10 * np.max(np.abs(want_hess))
        )

    def test_shift_scales_every_output(self, lines):
        a, b = TestPooledPass.constants(lines)
        evaluate = allocate._exact_pass(a, b, 0.05)
        u = np.array([1.0, 2.0, 5.0])
        plain = evaluate(u)
        shifted = allocate._exact_pass(a, b, 0.05, -3.0)(u)
        for x, y in zip(plain, shifted):
            assert np.exp(-3.0) * y == pytest.approx(x, rel=1e-14)

    @pytest.mark.parametrize("u", [(0.0, 0.0, 0.0), (1.0, 2.0, 5.0), (3.0, 12.0, 45.0)])
    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.9])
    def test_tvar_edge_matches_bracketed_root(self, lines, u, alpha):
        a, b = TestPooledPass.constants(lines)
        edge = allocate._tvar_edge(a.tolist(), b.tolist(), list(u), alpha)
        tail = lambda v: psi_tilde(lines, u, v)
        if tail(0.0) <= alpha:
            assert edge == 0.0
        else:
            tight = Tolerance(abs_tol=1e-15, rel_tol=1e-15)
            want = brent_root(lambda v: tail(v) - alpha, 0.0, 4000.0, tight)
            assert edge == pytest.approx(want, rel=1e-13)
            # the Newton steps rise to the root and stop at or below it
            assert tail(edge) >= alpha * (1.0 - 1e-14)


BENCHMARK_SPLITS = [
    ((LINE1, LINE2, LINE3), identity(), 100.0),
    ((LINE1, LINE2, LINE3), tvar(0.1), 100.0),
    ((LINE1, LINE2, LINE3, ExponentialLine(2.0, 2.0, 5.0)), identity(), 100.0),
]


class TestMethod2Exact:
    @pytest.mark.parametrize("lines,g,total", BENCHMARK_SPLITS)
    def test_kkt_certificate(self, lines, g, total):
        res = method2_exact(list(lines), g, total)
        assert res.kkt_residual <= 1e-10
        assert res.reserves.sum() == pytest.approx(total, rel=1e-14)
        assert res.objective == pytest.approx(
            scalar_objective(lines, g, res.reserves), rel=1e-10
        )
        assert_no_better_neighbour(lines, g, total, res.reserves)

    def test_standard_lines_reference_split(self, lines):
        res = method2_exact(list(lines), identity(), 100.0)
        assert res.reserves == pytest.approx(
            (0.98355745, 10.74294267, 88.27349988), abs=1e-8
        )
        assert res.active == [0, 1, 2]

    @pytest.mark.parametrize("total", [30.0, 60.0, 120.0, 150.0, 0.5, 5.0, 90.0])
    def test_matches_two_line_closed_form(self, total):
        closed = method2_two_line(FAST, SLOW, total)
        exact = method2_exact([FAST, SLOW], identity(), total)
        assert exact.objective == pytest.approx(closed.objective, rel=1e-12)
        assert exact.reserves == pytest.approx(closed.reserves, abs=1e-8)
        assert exact.active == closed.active

    def test_matches_two_line_at_a_large_budget(self):
        busy = ExponentialLine(9.307, 1.393, 22.2)
        calm = ExponentialLine(0.303, 0.664, 0.338)
        closed = method2_two_line(busy, calm, 125.89)
        exact = method2_exact([busy, calm], identity(), 125.89)
        assert exact.objective == pytest.approx(closed.objective, rel=1e-12)
        assert exact.reserves == pytest.approx(closed.reserves, abs=1e-8)

    def test_deficit_below_the_smallest_float(self, lines):
        # every ruin level is near exp(-850) at this budget, where the
        # products of two or more are negligible and water filling on the
        # single curves is optimal
        res = method2_exact(list(lines), identity(), 2e5)
        assert res.reserves.sum() == pytest.approx(2e5, rel=1e-14)
        assert res.kkt_residual <= 1e-10
        assert 0.0 <= res.objective < 1e-300
        water = method1_exponential(lines, 2e5)
        assert res.reserves == pytest.approx(water.reserves, rel=1e-12)

    @pytest.mark.parametrize("g", [identity(), tvar(0.1)])
    def test_budget_below_rounding_of_water_filling(self, lines, g):
        # water filling rounds every reserve to zero at this budget
        res = method2_exact(list(lines), g, 1e-20)
        assert res.reserves == pytest.approx([0.0, 0.0, 1e-20], rel=1e-14, abs=0.0)
        assert res.kkt_residual == 0.0

    @pytest.mark.parametrize("total", [1e-300, 1e-200, 1e-20])
    @pytest.mark.parametrize("g", [identity(), tvar(0.1)])
    def test_budget_far_below_the_decay_lengths(self, lines, g, total):
        # the whole budget goes to the line of the largest reduction, as
        # at 1e-9; water filling starts it on line 0
        res = method2_exact(list(lines), g, total)
        assert res.reserves == pytest.approx([0.0, 0.0, total], rel=1e-14, abs=0.0)
        assert res.active == [2]
        assert res.kkt_residual <= 1e-10

    def test_line_without_claims_gets_nothing(self, lines):
        quiet = ExponentialLine(0.0, 1.0, 1.0)
        res = method2_exact([*lines, quiet], tvar(0.1), 50.0)
        assert res.reserves[3] == 0.0
        assert res.reserves.sum() == pytest.approx(50.0, rel=1e-14)

    @pytest.mark.parametrize("g", [identity(), tvar(0.05)])
    def test_trivial_splits_report_the_largest_reduction(self, lines, g):
        single = method2_exact([LINE1], g, 25.0)
        assert single.reserves == pytest.approx([25.0])
        assert single.active == [0]
        # one line: F = v* + psi(U + v*) / (alpha b), and -F' = psi(U) / alpha
        # below the edge
        assert single.threshold == pytest.approx(
            min(1.0, ultimate_ruin(LINE1, 25.0) / (g.param or 1.0)), rel=1e-12
        )
        zero = method2_exact(list(lines), g, 0.0)
        generic = method2_generic(list(lines), g, 0.0)
        assert zero.active == [] and np.all(zero.reserves == 0.0)
        assert zero.threshold == pytest.approx(generic.threshold, rel=1e-8)
        assert zero.objective == pytest.approx(generic.objective, rel=1e-9)

    def test_validation(self, lines):
        with pytest.raises(DomainError):
            method2_exact(list(lines), proportional_hazard(0.5), 10.0)
        with pytest.raises(DomainError):
            method2_exact([], identity(), 10.0)
        with pytest.raises(DomainError):
            method2_exact(BEYOND_CAP, identity(), 10.0)
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                method2_exact(list(lines), identity(), bad)

    @settings(max_examples=12, derandomize=True, deadline=None, database=None)
    @given(aggregate_instances().filter(lambda instance: instance[1].kind != "ph"))
    def test_generic_never_finds_a_better_split(self, instance):
        lines, g, total = instance
        res = method2_exact(lines, g, total)
        assert np.all(res.reserves >= 0.0)
        assert res.reserves.sum() == pytest.approx(total, rel=1e-12)
        assert res.kkt_residual <= 1e-10
        generic = method2_generic(lines, g, total)
        mine = scalar_objective(lines, g, res.reserves)
        theirs = scalar_objective(lines, g, generic.reserves)
        assert mine <= theirs * (1.0 + 1e-12)
        assert res.objective == pytest.approx(mine, rel=1e-10)


@pytest.fixture
def counts(monkeypatch):
    """Quadrature passes, exact evaluations and bordered KKT solves."""
    seen = {"passes": 0, "evals": 0, "solves": 0}
    pooled, exact = allocate._pooled_deficit, allocate._exact_pass
    solve = np.linalg.solve

    def counted(name, fn):
        def wrapped(*args):
            seen[name] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(allocate, "_pooled_deficit", counted("passes", pooled))
    monkeypatch.setattr(
        allocate, "_exact_pass", lambda *args: counted("evals", exact(*args))
    )
    monkeypatch.setattr(np.linalg, "solve", counted("solves", solve))
    return seen


FOUR_LINES = (LINE1, LINE2, LINE3, ExponentialLine(2.0, 2.0, 5.0))


class TestNewtonSplit:
    """The active-set Newton loop that both aggregate routes share, on the
    benchmark's aggregate-min instances and their neighbours."""

    @pytest.mark.parametrize(
        "lines,g,evals,solves",
        [
            # line 0 leaves on the first step and enters again once the
            # step is small, not only at rounding level
            ((LINE1, LINE2, LINE3), identity(), 6, 7),
            (FOUR_LINES, identity(), 5, 5),
            # a corner that the first gradient certifies
            ((LINE1, LINE2, LINE3), tvar(0.1), 1, 0),
        ],
    )
    def test_exact_route_counts(self, counts, lines, g, evals, solves):
        res = method2_exact(list(lines), g, 100.0)
        assert (counts["evals"], counts["solves"]) == (evals, solves)
        assert counts["passes"] == 0
        assert res.kkt_residual <= 1e-12

    def test_certified_vertex_takes_one_pass(self, counts):
        g = proportional_hazard(0.7)
        res = method2_generic(list(FOUR_LINES), g, 40.0)
        assert (counts["passes"], counts["solves"]) == (1, 0)
        assert res.reserves.tolist() == [0.0, 0.0, 40.0, 0.0]
        assert res.active == [2]
        assert res.kkt_residual == 0.0
        assert_no_better_neighbour(FOUR_LINES, g, 40.0, res.reserves)

    @pytest.mark.parametrize(
        "lines,g,total,passes",
        [
            ((LINE1, LINE2, LINE3), proportional_hazard(0.8), 100.0, 5),
            (FOUR_LINES, proportional_hazard(0.8), 150.0, 5),
            # three lines hold reserve, so two enter from the vertex
            (FOUR_LINES, proportional_hazard(0.9), 150.0, 5),
            (FOUR_LINES, proportional_hazard(0.5), 400.0, 6),
        ],
    )
    def test_interior_split_to_rounding(self, counts, lines, g, total, passes):
        res = method2_generic(list(lines), g, total)
        assert counts["passes"] <= passes
        assert res.kkt_residual <= 1e-12
        assert res.reserves.sum() == pytest.approx(total, rel=1e-14)
        assert_no_better_neighbour(lines, g, total, res.reserves)

    @pytest.mark.parametrize("route", [method2_exact, method2_generic])
    def test_budget_of_the_least_float_is_kept(self, route):
        # the blocked step's t * d rounds to twice U, once returned as the
        # split (0, 1e-323); it is put back on the budget
        res = route([LINE1, LINE2], identity(), 5e-324)
        assert res.reserves.sum() == 5e-324
        assert res.reserves.min() >= 0.0

    def test_entrant_that_the_next_step_shrinks_leaves_at_once(self):
        # on F = u'Hu/2 + c'u the step from (3, 0, 0) is within the entry
        # tolerance (1 % of U + 300), so line 2, whose reduction 5 exceeds
        # the multiplier 27/35, enters before the pair settles; the
        # coupled Newton step then shrinks it from 0, so it leaves without
        # an evaluation and enters again only at rounding level
        h = np.array([[9.0, -8.0, -2.0], [-8.0, 10.0, 3.0], [-2.0, 3.0, 3.0]])
        c = np.array([-3.0, -3.0, 1.0])
        seen = []

        def evaluate(u):
            seen.append(u.tolist())
            return float(u @ h @ u / 2.0 + c @ u), h @ u + c, h

        res = allocate._newton_split(evaluate, np.array([3.0, 0.0, 0.0]), np.full(3, 0.01))
        # on the face u2 = 0, 17 u0 = 18 u1; line 2's reduction is below
        # the level there
        assert res.reserves == pytest.approx([54 / 35, 51 / 35, 0.0], rel=1e-12)
        assert res.active == [0, 1]
        assert res.threshold == pytest.approx(27 / 35, rel=1e-12)
        assert res.kkt_residual <= 1e-12
        assert len(seen) == 3
        assert all(u[2] == 0.0 for u in seen)

    def test_line_that_enters_early_and_shrinks_leaves(self):
        # line 0 has a larger reduction than the multiplier while the
        # other three are still settling, and the Newton step with it
        # shrinks it at once
        g = proportional_hazard(0.5)
        res = method2_generic(list(FOUR_LINES), g, 400.0)
        assert res.active == [1, 2, 3]
        assert res.kkt_residual <= 1e-12
        assert_no_better_neighbour(FOUR_LINES, g, 400.0, res.reserves)


class TestInvariance:
    def test_uniform_distortion_preserves_split(self, lines):
        assert invariance_check(lines, proportional_hazard(0.5), 100.0)

    def test_single_line_trivially_invariant(self):
        assert invariance_check([LINE1], proportional_hazard(0.3), 5.0)

    def test_heterogeneous_penalties_move_the_split(self, lines):
        flat = method1_exponential(lines, 100.0)
        bent = method1_exponential(lines, 100.0, (1.0, 1.0, 2.0))
        assert np.max(np.abs(flat.reserves - bent.reserves)) > 1.0

    def test_rejects_flat_distortion(self, lines):
        with pytest.raises(DomainError):
            invariance_check(lines, var_step(0.4), 10.0)


BEYOND_CAP = [FAST, SLOW, LINE1] * 4 + [LINE2]


class TestAggregateMinRoute:
    @pytest.fixture
    def routes(self, monkeypatch):
        taken = []
        for name, tag in [
            ("method2_two_line", "two-line"),
            ("method2_exact", "exact"),
            ("method2_generic", "generic"),
        ]:
            monkeypatch.setattr(allocate, name, lambda *a, tag=tag: taken.append(tag))
        return taken

    def test_two_identity_lines_take_the_closed_route(self, routes):
        # ph:1 has identity's primitive pieces, so it routes as identity
        aggregate_min([FAST, SLOW], identity(), 60.0)
        aggregate_min([FAST, SLOW], proportional_hazard(1.0), 60.0)
        assert routes == ["two-line", "two-line"]

    @pytest.mark.parametrize(
        "lines,g",
        [
            ([FAST, SLOW], tvar(0.1)),
            ([FAST], tvar(0.1)),
            ([FAST, SLOW, LINE1], identity()),
            ([FAST, SLOW, LINE1] * 4, identity()),
            ([FAST, SLOW, LINE1] * 4, tvar(0.3)),
        ],
    )
    def test_identity_beyond_two_lines_and_tvar_are_exact(self, routes, lines, g):
        aggregate_min(lines, g, 60.0)
        assert routes == ["exact"]

    def test_one_identity_line_is_exact(self, routes):
        aggregate_min([FAST], identity(), 60.0)
        assert routes == ["exact"]

    @pytest.mark.parametrize(
        "lines,g",
        [
            ([FAST, SLOW], proportional_hazard(0.5)),
            ([FAST], proportional_hazard(0.5)),
            (BEYOND_CAP, tvar(0.1)),
            ([FAST, SLOW], var_step(0.1)),
            (BEYOND_CAP, identity()),
        ],
    )
    def test_everything_else_is_generic(self, routes, lines, g):
        aggregate_min(lines, g, 60.0)
        assert routes == ["generic"]

    def test_results_match_the_routes(self):
        two = aggregate_min([FAST, SLOW], identity(), 60.0)
        assert np.array_equal(two.reserves, method2_two_line(FAST, SLOW, 60.0).reserves)
        three = aggregate_min([FAST, SLOW, LINE1], tvar(0.3), 60.0)
        exact = method2_exact([FAST, SLOW, LINE1], tvar(0.3), 60.0)
        assert np.array_equal(three.reserves, exact.reserves)
