"""Reserve allocation: water-filling and aggregate-minimum solvers."""

import math

import numpy as np
import pytest

from maxdeficit import (
    AllocationProblem,
    AllocationResult,
    ConvergenceError,
    DomainError,
    ExponentialLine,
    identity,
    invariance_check,
    line_from_ruin_constants,
    method1_exponential,
    method1_generic,
    method2_generic,
    method2_two_line,
    proportional_hazard,
    psi_tilde,
    rho2_two_line,
    ruin_constants,
    simulate_max_loss,
    tail_integral,
    ultimate_ruin,
    var_step,
)
from tests.conftest import LINE1, LINE2, LINE3

# the pair used throughout the aggregate-method checks: same zero-reserve
# ruin probability, very different decay rates
FAST = line_from_ruin_constants(0.9, 0.05)
SLOW = line_from_ruin_constants(0.9, 0.01)


def marginal_levels(lines, gammas, reserves):
    return [
        ultimate_ruin(line, u) ** (1.0 / g)
        for line, g, u in zip(lines, gammas, reserves)
    ]


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
            AllocationProblem(lines=(), total_u=1.0)
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                AllocationProblem(lines=lines, total_u=bad)
        with pytest.raises(DomainError):
            AllocationProblem(lines=lines, total_u=1.0, gammas=(1.0, 0.5, 1.0))
        with pytest.raises(DomainError):
            AllocationProblem(lines=lines, total_u=1.0, gammas=(1.0, 1.0))

    def test_defaults(self, lines):
        p = AllocationProblem(lines=lines, total_u=10.0)
        assert p.gammas == (1.0, 1.0, 1.0)


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
        res = method1_exponential(AllocationProblem(lines=lines, total_u=total))
        assert res.reserves == pytest.approx(expected, abs=1e-6)
        assert_result_contract(lines, (1.0, 1.0, 1.0), total, res)

    def test_penalized_split(self, lines):
        res = method1_exponential(
            AllocationProblem(lines=lines, total_u=100.0, gammas=(1.0, 1.0, 2.0))
        )
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
        res = method1_exponential(AllocationProblem(lines=lines, total_u=37.5))
        assert res.reserves == pytest.approx(oracle, abs=1e-6)

    def test_zero_budget(self, lines):
        res = method1_exponential(AllocationProblem(lines=lines, total_u=0.0))
        assert np.all(res.reserves == 0.0)
        assert res.active == []
        assert res.threshold == pytest.approx(5.0 / 6.0, rel=1e-12)

    def test_monotone_with_nested_active_sets(self, lines):
        prev = np.zeros(3)
        prev_active = set()
        for total in (1.0, 5.0, 10.0, 20.0, 50.0, 100.0, 150.0):
            res = method1_exponential(AllocationProblem(lines=lines, total_u=total))
            assert np.all(res.reserves >= prev - 1e-9)
            assert prev_active <= set(res.active)
            prev, prev_active = res.reserves, set(res.active)

    def test_quiet_line_gets_nothing(self):
        quiet = ExponentialLine(0.0, 1.0, 1.0)
        res = method1_exponential(
            AllocationProblem(lines=(LINE1, quiet), total_u=5.0)
        )
        assert res.reserves == pytest.approx((5.0, 0.0), abs=1e-9)
        with pytest.raises(DomainError):
            method1_exponential(
                AllocationProblem(lines=(quiet, quiet), total_u=5.0)
            )

    def test_objective_is_summed_deficit(self, lines):
        res = method1_exponential(AllocationProblem(lines=lines, total_u=10.0))
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
        closed = method1_exponential(AllocationProblem(lines=lines, total_u=100.0))
        assert res.reserves == pytest.approx(closed.reserves, abs=1e-6)

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

    def test_rejects_vanishing_marginals(self):
        with pytest.raises(DomainError):
            method1_generic([lambda u: 0.0, lambda u: 0.0], 1.0)

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
        with pytest.raises(DomainError):
            rho2_two_line(FAST, SLOW, -1.0, 5.0)

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
        # takes about 1,600 integrand calls
        g = proportional_hazard(0.5)
        calls = 0

        def integrand(v):
            nonlocal calls
            calls += 1
            if calls > 20_000:
                raise RuntimeError("pooled tail integral exceeded 20,000 calls")
            return g(psi_tilde(lines, (33.0, 33.0, 34.0), v))

        tail_integral(integrand, 0.0)
        assert calls < 2_000

    def test_validation(self):
        with pytest.raises(DomainError):
            psi_tilde([FAST, SLOW], [1.0], 0.0)
        with pytest.raises(DomainError):
            psi_tilde([FAST, SLOW], [1.0, -1.0], 0.0)


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

    def test_rejects_nonconcave_distortion(self):
        with pytest.raises(DomainError):
            method2_generic([FAST, SLOW], var_step(0.4), 10.0)

    def test_rejects_negative_budget(self):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                method2_generic([FAST, SLOW], identity(), bad)

    def test_exhausted_budget_reports_best_iterate(self):
        with pytest.raises(ConvergenceError) as info:
            method2_generic([FAST, SLOW], identity(), 60.0, tol=1e-10, max_iter=1)
        best = info.value.best
        assert isinstance(best, AllocationResult)
        assert best.reserves.sum() == pytest.approx(60.0, abs=1e-6)


class TestInvariance:
    def test_uniform_distortion_preserves_split(self, lines):
        assert invariance_check(lines, proportional_hazard(0.5), 100.0)

    def test_single_line_trivially_invariant(self):
        assert invariance_check([LINE1], proportional_hazard(0.3), 5.0)

    def test_heterogeneous_penalties_move_the_split(self, lines):
        flat = method1_exponential(AllocationProblem(lines=lines, total_u=100.0))
        bent = method1_exponential(
            AllocationProblem(lines=lines, total_u=100.0, gammas=(1.0, 1.0, 2.0))
        )
        assert np.max(np.abs(flat.reserves - bent.reserves)) > 1.0

    def test_rejects_flat_distortion(self, lines):
        with pytest.raises(DomainError):
            invariance_check(lines, var_step(0.4), 10.0)
