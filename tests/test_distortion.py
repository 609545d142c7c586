"""Distortion functions and the Choquet machinery built on them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxdeficit import (
    Distortion,
    DomainError,
    choquet_empirical,
    choquet_se,
    choquet_tail,
    choquet_weights,
    identity,
    line_from_ruin_constants,
    parse_distortion,
    proportional_hazard,
    TruncationError,
    ruin_constants,
    tail_integral,
    tvar,
    ultimate_ruin,
    var_step,
)
from maxdeficit.distortion import edge_reserve
from tests.conftest import LINE1, LINE2, LINE3, counted


class TestParsing:
    @pytest.mark.parametrize(
        "spec,kind,param",
        [
            ("identity", "identity", None),
            ("ph:0.5", "ph", 0.5),
            ("tvar:0.05", "tvar", 0.05),
            ("varstep:0.4", "varstep", 0.4),
        ],
    )
    def test_round_trip(self, spec, kind, param):
        g = parse_distortion(spec)
        assert g.kind == kind
        if param is not None:
            assert g.param == pytest.approx(param)
        assert parse_distortion(g.label()) == g

    @pytest.mark.parametrize(
        "bad", ["", "nope", "nope:1", "ph", "ph:abc", "tvar", "identity:1"]
    )
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_distortion(bad)

    @pytest.mark.parametrize("bad", ["ph:0", "ph:1.5", "tvar:0", "tvar:1", "varstep:2"])
    def test_out_of_range_parameters(self, bad):
        with pytest.raises(ValueError):
            parse_distortion(bad)


class TestEvaluation:
    def test_identity(self):
        x = np.linspace(0.0, 1.0, 11)
        assert np.array_equal(identity()(x), x)

    def test_ph_power(self):
        g = proportional_hazard(0.5)
        x = np.linspace(0.0, 1.0, 11)
        assert np.allclose(g(x), np.sqrt(x))
        assert isinstance(g(np.array(0.25)), float)  # scalar in, scalar out

    def test_tvar_caps_at_one(self):
        g = tvar(0.2)
        assert g(0.1) == pytest.approx(0.5)
        assert g(0.2) == 1.0
        assert g(0.9) == 1.0

    def test_varstep_strict_cut(self):
        g = var_step(0.4)
        assert list(g(np.array([0.39, 0.4, 0.41]))) == [0.0, 0.0, 1.0]

    def test_endpoints_fixed(self):
        for g in (identity(), proportional_hazard(0.3), tvar(0.1), var_step(0.7)):
            assert g(0.0) == 0.0
            assert g(1.0) == 1.0

    def test_domain_clamp(self):
        for bad in (-0.01, 1.01):
            with pytest.raises(DomainError):
                identity()(bad)

    @pytest.mark.parametrize(
        "args",
        [
            ("ph",),
            ("tvar",),
            ("varstep",),
            ("ph", "0.5"),
            ("tvar", "0.1"),
            ("foo",),
            ("identity", 0.5),
        ],
    )
    def test_missing_or_non_numeric_parameter(self, args):
        with pytest.raises(DomainError):
            Distortion(*args)

    def test_concavity_flag(self):
        assert identity().concave
        assert proportional_hazard(0.5).concave
        assert tvar(0.05).concave
        assert not var_step(0.4).concave


def g_prime(g, x):
    return g.derivatives(x)[1]


class TestSlope:
    @pytest.mark.parametrize(
        "g", [identity(), proportional_hazard(0.3), proportional_hazard(0.8), tvar(0.2)]
    )
    def test_matches_central_differences(self, g):
        # stay clear of 0, of 1 and of the tvar kink at 0.2
        x = np.array([0.01, 0.05, 0.15, 0.3, 0.55, 0.9])
        h = 1e-6
        numeric = (g(x + h) - g(x - h)) / (2.0 * h)
        assert g_prime(g, x) == pytest.approx(numeric, rel=1e-6)

    def test_tvar_takes_left_slope_at_kink(self):
        assert g_prime(tvar(0.2), np.array([0.2])) == pytest.approx([5.0])


class TestCurvature:
    @pytest.mark.parametrize(
        "g", [identity(), proportional_hazard(0.3), proportional_hazard(0.8), tvar(0.2)]
    )
    def test_matches_central_differences_of_slope(self, g):
        # stay clear of 0, of 1 and of the tvar kink at 0.2
        x = np.array([0.01, 0.05, 0.15, 0.3, 0.55, 0.9])
        h = 1e-6
        numeric = (g_prime(g, x + h) - g_prime(g, x - h)) / (2.0 * h)
        assert g.derivatives(x)[2] == pytest.approx(numeric, rel=1e-6, abs=1e-9)


class TestDerivatives:
    def test_pinned_values(self):
        # ph:0.5 gives x**-0.5 / 2 and -x**-1.5 / 4; tvar's g'' is 0, and
        # its g' at the kink is the left slope 1/alpha
        _, slope, curvature = proportional_hazard(0.5).derivatives(np.array([0.25]))
        assert slope[0] == pytest.approx(1.0) and curvature[0] == pytest.approx(-2.0)
        _, slope, curvature = tvar(0.2).derivatives(np.array([0.2, 0.5]))
        assert slope.tolist() == [pytest.approx(5.0), 0.0]
        assert curvature.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("p", [0.3, 0.8])
    def test_takes_the_floors_only_near_zero(self, p):
        # g where asked, g' and g'' at the floors that keep ph finite at 0
        tiny = np.finfo(float).tiny
        x = np.array([0.0, 1e-310, tiny, 1e-200, 1e-154, 0.01, 0.2, 0.55, 1.0])
        g = proportional_hazard(p)
        value, slope, curvature = g.derivatives(x)
        assert np.array_equal(value, g(x))
        assert np.array_equal(slope, p * np.maximum(x, tiny) ** (p - 1.0))
        bent = np.maximum(x, tiny**0.5)
        assert np.array_equal(curvature, p * (p - 1.0) * bent ** (p - 2.0))

    @pytest.mark.parametrize("p", [1e-3, 0.3, 0.999])
    def test_finite_at_zero(self, p):
        value, slope, curvature = proportional_hazard(p).derivatives(np.array([0.0]))
        assert value[0] == 0.0
        assert np.isfinite(slope[0]) and slope[0] > 0.0
        assert np.isfinite(curvature[0]) and curvature[0] < 0.0

    def test_checks_range_and_kind(self):
        with pytest.raises(DomainError, match="outside"):
            identity().derivatives(np.array([0.5, 1.5]))
        with pytest.raises(DomainError, match="no slope"):
            var_step(0.4).derivatives(np.array([0.1, 0.5]))


class TestScalarPath:
    # a float argument to g takes plain float arithmetic; it must agree
    # with the array form, including at the endpoints, the kink and NaN
    KINDS = [
        identity(),
        proportional_hazard(0.3),
        proportional_hazard(1.0),
        tvar(0.2),
        var_step(0.4),
    ]

    @staticmethod
    def points(g, rng):
        fixed = [0.0, 1.0, math.nan]
        if g.param is not None:
            fixed.append(g.param)
        return fixed + list(rng.uniform(0.0, 1.0, size=50))

    @pytest.mark.parametrize("g", KINDS, ids=lambda g: g.label())
    def test_value_matches_array_form(self, g, rng):
        xs = self.points(g, rng)
        scalar = [g(x) for x in xs]
        assert all(type(v) is float for v in scalar)
        np.testing.assert_allclose(scalar, g(np.array(xs)), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("g", KINDS, ids=lambda g: g.label())
    def test_same_range_checks(self, g):
        for bad in (-1e-12, 1.5, -math.inf, math.inf):
            with pytest.raises(DomainError):
                g(bad)
            with pytest.raises(DomainError, match="outside"):
                g.derivatives(np.array([0.5, bad]))


class TestChoquetWeights:
    def test_sum_to_one(self):
        for g in (identity(), proportional_hazard(0.5), tvar(0.1), var_step(0.3)):
            w = choquet_weights(g, 17)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_identity_is_uniform(self):
        assert np.allclose(choquet_weights(identity(), 8), np.full(8, 0.125))

    def test_concave_weights_decreasing(self):
        w = choquet_weights(proportional_hazard(0.5), 12)
        assert np.all(np.diff(w) <= 1e-15)


class TestChoquetEmpirical:
    def test_step_picks_order_statistic(self):
        got = choquet_empirical(var_step(0.4), np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert got == 3.0

    def test_ph_half_on_spike(self):
        got = choquet_empirical(proportional_hazard(0.5), np.array([4.0, 0.0, 0.0, 0.0]))
        assert got == pytest.approx(2.0, abs=1e-14)

    def test_identity_is_mean(self, rng):
        x = rng.exponential(3.0, size=257)
        assert choquet_empirical(identity(), x) == pytest.approx(x.mean(), rel=1e-12)

    def test_translation_and_scaling(self, rng):
        g = proportional_hazard(0.6)
        x = rng.exponential(2.0, size=100)
        base = choquet_empirical(g, x)
        assert choquet_empirical(g, x + 5.0) == pytest.approx(base + 5.0, rel=1e-12)
        assert choquet_empirical(g, 3.0 * x) == pytest.approx(3.0 * base, rel=1e-12)

    def test_monotone_in_samples(self, rng):
        g = tvar(0.25)
        x = rng.exponential(1.0, size=64)
        y = x + rng.exponential(0.5, size=64)
        assert choquet_empirical(g, y) >= choquet_empirical(g, x)

    def test_concave_subadditive_in_sample(self, rng):
        # comonotone-ordered weights make this exact, not just statistical
        for g in (proportional_hazard(0.5), tvar(0.1)):
            for _ in range(30):
                n = int(rng.integers(2, 7))
                x = rng.exponential(1.0, size=n)
                y = rng.exponential(2.0, size=n)
                lhs = choquet_empirical(g, x + y)
                rhs = choquet_empirical(g, x) + choquet_empirical(g, y)
                assert lhs <= rhs + 1e-12

    def test_varstep_breaks_subadditivity(self):
        g = var_step(0.6)
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])
        assert choquet_empirical(g, x) == 0.0
        assert choquet_empirical(g, y) == 0.0
        assert choquet_empirical(g, x + y) == 1.0

    def test_loading_exceeds_mean_for_concave(self, rng):
        x = rng.exponential(1.0, size=500)
        assert choquet_empirical(proportional_hazard(0.5), x) > x.mean()

    def test_input_validation(self):
        with pytest.raises(DomainError):
            choquet_empirical(identity(), np.array([]))
        with pytest.raises(DomainError):
            choquet_empirical(identity(), np.array([1.0, -0.5]))
        with pytest.raises(DomainError):
            choquet_empirical(identity(), np.array([1.0, math.nan]))
        with pytest.raises(DomainError):
            choquet_empirical(identity(), np.ones((3, 3)))


class TestChoquetTail:
    def test_step_tail_gives_cutoff(self):
        q = 7.25
        got = choquet_tail(identity(), lambda v: np.where(v < q, 1.0, 0.0))
        assert got == pytest.approx(q, abs=1e-6)

    def test_exponential_tail_identity(self):
        got = choquet_tail(identity(), lambda v: np.exp(-0.4 * v))
        assert got == pytest.approx(2.5, rel=1e-8)

    def test_ph_tail_closed_form(self):
        # g(x)=sqrt(x) over exp(-b v) integrates to 2/b
        got = choquet_tail(proportional_hazard(0.5), lambda v: np.exp(-0.4 * v))
        assert got == pytest.approx(5.0, rel=1e-8)

    def test_matches_empirical_within_error(self, rng):
        g = proportional_hazard(0.5)
        x = rng.exponential(2.0, size=4000)
        exact = choquet_tail(g, lambda v: np.exp(-v / 2.0))
        est = choquet_empirical(g, x)
        se = choquet_se(g, x, seed=11)
        assert abs(est - exact) < 3.0 * se


    @pytest.mark.parametrize("g", [tvar(0.05), var_step(0.4)])
    def test_edge_kinds_match_the_primitive(self, g):
        # D(0) = G(a) / b on an exponential line's ruin curve
        k = ruin_constants(LINE1)
        got = choquet_tail(g, lambda v: ultimate_ruin(LINE1, v))
        assert got == pytest.approx(g.primitive(k.a) / k.b, rel=1e-12)

    def test_never_reaching_the_edge_raises(self):
        with pytest.raises(TruncationError):
            choquet_tail(tvar(0.1), lambda v: np.full(v.shape, 0.5))


class TestEdgeReserve:
    # the least v >= 0 with tail(v) <= alpha, where g(tail) leaves 1

    @pytest.mark.parametrize("line", [LINE1, LINE2, LINE3])
    @pytest.mark.parametrize("g", [tvar(0.01), var_step(0.01), tvar(0.3), var_step(0.4)])
    def test_first_float_at_or_below_the_edge(self, line, g):
        tail, calls = counted(lambda v: ultimate_ruin(line, v))
        v = edge_reserve(g, tail)
        k = ruin_constants(line)
        assert v == pytest.approx(math.log(k.a / g.param) / k.b, rel=1e-14)
        before = np.nextafter(v, 0.0)
        assert ultimate_ruin(line, np.array([v]))[0] <= g.param
        assert ultimate_ruin(line, np.array([before]))[0] > g.param
        # one call on the doubling grid, then the probe around the root of
        # the log-linear fit, which holds the crossing of an exponential tail
        assert len(calls) <= 2

    def test_edge_below_one(self):
        # the bracket [0, 1] spans the most floats
        tail, calls = counted(lambda v: np.exp(-v))
        v = edge_reserve(tvar(0.9), tail)
        assert np.exp(-v) <= 0.9 < np.exp(-np.nextafter(v, 0.0))
        assert len(calls) <= 14

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(
        a=st.floats(0.01, 0.99),
        log_b=st.floats(-8.0, 4.0),
        log_alpha=st.floats(math.log(1e-6), math.log(0.999)),
        kind=st.sampled_from(["tvar", "varstep"]),
    )
    def test_least_float_on_random_lines(self, a, log_b, log_alpha, kind):
        line = line_from_ruin_constants(a, math.exp(log_b))
        alpha = math.exp(log_alpha)
        tail, calls = counted(lambda v: ultimate_ruin(line, v))
        v = edge_reserve(Distortion(kind, alpha), tail)
        at, before = ultimate_ruin(line, np.array([v, np.nextafter(v, 0.0)]))
        assert at <= alpha
        assert v == 0.0 or before > alpha
        # an edge within 1 % below tail(0) puts the crossing within the
        # rounding of the tail, up to 1/(b v) floats from the fitted root,
        # which the probe's doubling steps bracket and the cuts then close
        assert len(calls) <= (14 if 0.99 * a < alpha < a else 3)

    @pytest.mark.parametrize("closeness", [1e-3, 1e-6, 1e-9, 1e-14])
    def test_edge_just_below_tail_at_zero(self, closeness):
        line = line_from_ruin_constants(0.5, 1.0)
        alpha = 0.5 * (1.0 - closeness)
        tail, calls = counted(lambda v: ultimate_ruin(line, v))
        v = edge_reserve(tvar(alpha), tail)
        at, before = ultimate_ruin(line, np.array([v, np.nextafter(v, 0.0)]))
        assert at <= alpha < before
        assert len(calls) <= 14

    def test_values_past_the_bracket_are_not_used(self):
        # NaN far out, as a tail whose terms overflow there would give
        def tail(v):
            return np.where(v < 5.0, 0.9, np.where(v < 1e30, 0.05, np.nan))

        assert edge_reserve(tvar(0.1), tail) == 5.0

    def test_infinite_tail_sends_the_probe_to_the_bracket_end(self):
        # ln(edge / inf) / ln(tail / inf) is NaN, so the log-linear probe
        # is placed at the bracket's lower end, where its offsets still
        # sample the bracket, and the cuts find the jump
        tail, calls = counted(lambda v: np.where(v < 0.5, np.inf, 0.05 * np.exp(-v)))
        assert edge_reserve(tvar(0.1), tail) == 0.5
        probe = calls[1]
        assert probe.size > 2 and probe.min() == 0.0 and probe.max() == 1.0

    def test_tail_at_or_below_the_edge_at_zero(self):
        # LINE1 has a = 5/6: tvar(0.9) leaves no plateau
        assert edge_reserve(tvar(0.9), lambda v: ultimate_ruin(LINE1, v)) == 0.0
        assert edge_reserve(var_step(5.0 / 6.0), lambda v: ultimate_ruin(LINE1, v)) == 0.0

    @pytest.mark.parametrize("g", [identity(), proportional_hazard(0.5)])
    def test_no_edge_calls_no_tail(self, g):
        tail, calls = counted(lambda v: ultimate_ruin(LINE1, v))
        assert edge_reserve(g, tail) == 0.0
        assert calls == []

    def test_step_tail_jumping_across_the_edge(self):
        q = 7.25

        def step(v):
            return np.where(v < q, 0.9, 0.05 * np.exp(q - v))

        tail, calls = counted(step)
        assert edge_reserve(tvar(0.1), tail) == q
        # no fit holds a jump: the probe only narrows the bracket
        assert len(calls) <= 14
        assert edge_reserve(var_step(0.1), tail) == q
        # 1 up to q, then half the tail's integral for tvar; 0 for varstep
        assert choquet_tail(tvar(0.1), step) == pytest.approx(q + 0.5, rel=1e-12)
        assert choquet_tail(var_step(0.1), step) == q

    def test_tail_that_never_reaches_the_edge(self):
        # tail_integral gives up after max_iter panels, the last ending
        # at 2**200 - 1; g(tail) is 1 up to there
        with pytest.raises(TruncationError) as err:
            edge_reserve(var_step(0.1), lambda v: np.full(v.shape, 0.5))
        assert err.value.partial == 2.0**200 - 1.0


class TestChoquetSe:
    def test_reproducible_and_positive(self, rng):
        x = rng.exponential(1.0, size=300)
        a = choquet_se(identity(), x, seed=5)
        b = choquet_se(identity(), x, seed=5)
        assert a == b > 0.0

    def test_shrinks_with_sample_size(self, rng):
        small = choquet_se(identity(), rng.exponential(1.0, size=200), seed=1)
        big = choquet_se(identity(), rng.exponential(1.0, size=20000), seed=1)
        assert big < small

    def test_rejects_fewer_than_two_resamples(self, rng):
        x = rng.exponential(1.0, size=50)
        for bad in (1, 0, -3, 2.0, 10.5):
            with pytest.raises(DomainError, match="n_boot"):
                choquet_se(identity(), x, n_boot=bad)
        assert choquet_se(identity(), x, n_boot=2) >= 0.0


KINDS = [identity(), proportional_hazard(0.35), tvar(0.2), var_step(0.3)]


class TestPrimitive:
    # G(y) = integral of g(x)/x over (0, y]; x = y * exp(-t) turns it into
    # the integral of g(y * exp(-t)) over t >= 0
    @pytest.mark.parametrize("g", KINDS, ids=lambda g: g.label())
    def test_matches_numeric_integral(self, g):
        for y in (1e-4, 0.05, 0.2, 0.3, 0.45, 0.8, 1.0):
            numeric = tail_integral(lambda t: g(y * np.exp(-t)), 0.0)
            assert g.primitive(y) == pytest.approx(numeric, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("g", KINDS, ids=lambda g: g.label())
    def test_array_form_and_domain(self, g):
        ys = np.linspace(0.0, 1.0, 11)
        assert g.primitive(ys) == pytest.approx([g.primitive(float(y)) for y in ys])
        assert type(g.primitive(0.5)) is float
        for bad in (-1e-12, 1.5):
            with pytest.raises(DomainError):
                g.primitive(bad)

    def test_table(self):
        assert identity().primitive_pieces == (1.0, 1.0, math.inf)
        assert proportional_hazard(0.35).primitive_pieces == (1.0, 0.35, math.inf)
        assert tvar(0.2).primitive_pieces == (0.2, 1.0, 0.2)
        assert var_step(0.3).primitive_pieces == (math.inf, 1.0, 0.3)
        # continuous at the edge: the log piece starts at G(edge)
        assert tvar(0.2).primitive(0.2) == 1.0
        assert var_step(0.3).primitive(0.3) == 0.0

    @pytest.mark.parametrize("g", KINDS, ids=lambda g: g.label())
    def test_derivative_gives_g(self, g):
        # g(x) = x * G'(x), by central differences away from the edge
        h = 1e-6
        for x in (0.1, 0.25, 0.6, 0.9):
            if g.param is not None and abs(x - g.param) < 1e-3:
                continue
            diff = (g.primitive(x + h) - g.primitive(x - h)) / (2.0 * h)
            assert x * diff == pytest.approx(g(x), rel=1e-6, abs=1e-9)
