"""Root finding, Lambert W and semi-infinite quadrature against slow
but trustworthy oracles (plain bisection, fixed-point iteration, exact
antiderivatives)."""

import math
import sys

import numpy as np
import pytest

from maxdeficit import (
    BracketingError,
    ConvergenceError,
    DomainError,
    ExponentialLine,
    Tolerance,
    TruncationError,
    brent_root,
    lambert_w0,
    tail_integral,
    ultimate_ruin,
)

# root of exp(-x) = x, solved here by bisection once and frozen
OMEGA = 0.5671432904097837


def bisect(f, lo, hi, steps=200):
    flo = f(lo)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if f(mid) * flo > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestBrent:
    def test_transcendental_root(self):
        f = lambda x: math.exp(-x) - x
        root = brent_root(f, 0.0, 1.0)
        assert root == pytest.approx(OMEGA, abs=1e-9)
        tight = brent_root(f, 0.0, 1.0, Tolerance(abs_tol=1e-14, rel_tol=1e-14))
        assert tight == pytest.approx(OMEGA, abs=1e-12)
        assert tight == pytest.approx(bisect(f, 0.0, 1.0), abs=1e-12)

    def test_matches_bisection_on_random_cubics(self, rng):
        for _ in range(25):
            r = rng.uniform(-3.0, 3.0)
            p, q = rng.uniform(0.5, 2.0, size=2)
            # one real root at r, complex pair from the positive quadratic
            f = lambda x: (x - r) * (x * x + p * x + p * p / 4 + q)
            root = brent_root(f, r - 1.7, r + 1.9)
            assert abs(root - r) < 1e-9

    def test_endpoints_already_roots(self):
        f = lambda x: x * (x - 2.0)
        assert brent_root(f, 0.0, 1.0) == 0.0
        assert brent_root(f, 1.0, 2.0) == 2.0

    def test_rejects_unbracketed(self):
        with pytest.raises(BracketingError):
            brent_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_iteration_budget(self):
        tol = Tolerance(abs_tol=1e-15, rel_tol=1e-15, max_iter=2)
        with pytest.raises(ConvergenceError):
            brent_root(lambda x: math.exp(-x) - x, 0.0, 1.0, tol)


class TestLambertW:
    def test_unit_argument_is_omega(self):
        # w e^w = 1 and e^{-x} = x share the same root
        assert lambert_w0(1.0) == pytest.approx(OMEGA, abs=1e-13)

    def test_matches_bisection_oracle(self):
        for y in (-0.36, -0.2, -0.05, 0.0, 0.4, 1.0, 50.0 / 3.0, 833.33, 1e6):
            w_ref = bisect(lambda w: w * math.exp(w) - y, -1.0, 20.0)
            assert lambert_w0(y) == pytest.approx(w_ref, abs=1e-11)

    def test_round_trip(self):
        for y in np.geomspace(1e-8, 1e8, 33):
            w = lambert_w0(float(y))
            assert w * math.exp(w) == pytest.approx(float(y), rel=1e-12)
        for y in (-0.36, -0.3, -0.1, -1e-4):
            w = lambert_w0(y)
            assert w * math.exp(w) == pytest.approx(y, abs=1e-12)

    def test_branch_point(self):
        assert lambert_w0(-1.0 / math.e) == -1.0
        # just above the branch point the series guess takes over
        w = lambert_w0(-1.0 / math.e + 1e-9)
        assert w * math.exp(w) == pytest.approx(-1.0 / math.e + 1e-9, abs=1e-8)

    def test_below_branch_point(self):
        with pytest.raises(ValueError):
            lambert_w0(-0.4)

    def test_large_arguments(self):
        # w*exp(w) - y overflows from about 3.7e302; w + ln w = ln y holds
        # up to the largest float
        big = [3.7e302, 2.6e305, sys.float_info.max]
        for y in [10.0**k for k in range(1, 309)] + big:
            w = lambert_w0(y)
            assert abs(w + math.log(w) - math.log(y)) <= 1e-15 * math.log(y)
        assert lambert_w0(1e303) == pytest.approx(691.1449, abs=1e-4)

    def test_rejects_non_finite(self):
        for y in (math.nan, math.inf):
            with pytest.raises(DomainError):
                lambert_w0(y)


class TestTailIntegral:
    @pytest.mark.parametrize("b", [0.005, 0.05, 1.0])
    @pytest.mark.parametrize("start", [0.0, 3.7, 50.0])
    def test_exponential_tails(self, b, start):
        exact = (0.8 / b) * math.exp(-b * start)
        got = tail_integral(lambda v: 0.8 * np.exp(-b * v), start)
        assert abs(got - exact) <= max(1e-6 * exact, 1e-8)

    def test_gaussian_tail(self):
        got = tail_integral(lambda v: np.exp(-v * v), 0.0)
        assert got == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-9)
        assert got == pytest.approx(0.8862269254527579, abs=1e-9)

    def test_compact_support(self):
        got = tail_integral(lambda v: np.maximum(0.0, 1.0 - v), 0.0)
        assert got == pytest.approx(0.5, abs=1e-9)

    def test_step_integrand(self):
        # discontinuous cutoff: the integral is just the cutoff location
        q = 26.537
        got = tail_integral(lambda v: np.where(v < q, 1.0, 0.0), 0.0)
        assert got == pytest.approx(q, abs=1e-6)
        # a tail that starts at 1: the panel [0, 1] adds nothing, but its
        # right edge is not below abs_tol, so accumulation goes on
        got = tail_integral(lambda v: np.where(v < 1.0, 0.0, np.exp(1.0 - v)), 0.0)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_step_anywhere(self, rng):
        # jumps just past a panel's left edge (3 starts the panel [3, 7]
        # from 0) or next to a midpoint fall between the nodes of an open
        # rule; from 40 every step is 0 on the whole range
        qs = [3.005, 4.999, 5.001, 6.9995] + list(rng.uniform(0.0, 40.0, 100))
        for start in (0.0, 1.3, 40.0):
            for q in qs:
                got = tail_integral(lambda v: np.where(v < q, 1.0, 0.0), start)
                assert got == pytest.approx(max(q - start, 0.0), abs=1e-10)

    def test_nondecaying_integrand_raises(self):
        with pytest.raises(TruncationError) as err:
            tail_integral(lambda v: 1.0 / (1.0 + v), 0.0)
        assert err.value.partial > 0.0
        assert isinstance(err.value, ConvergenceError)

    def test_panels_past_the_stop_never_count(self):
        # panels are sampled 16 at a time, so the integrand is asked for
        # values past [31, 63], where accumulation stops; NaN there
        # would poison the sum if those panels were added
        asked = []

        def f(v):
            asked.append(v.max())
            return np.where(v > 200.0, np.nan, np.exp(-np.minimum(v, 200.0)))

        assert tail_integral(f, 0.0) == pytest.approx(1.0, rel=1e-12)
        assert max(asked) > 200.0

    def test_nan_before_the_stop_raises(self):
        # NaN on [2, 3] fills the panel [1, 3] and its upper half; a NaN
        # span is never bisected, and the panel raises before it is added
        calls = 0

        def f(v):
            nonlocal calls
            calls += 1
            # each depth of bisection doubles the NaN spans, so a kernel
            # that splits them stops here, long before memory runs out
            if calls > 8:
                raise RuntimeError("bisection chases the NaN")
            return np.where((v >= 2.0) & (v <= 3.0), np.nan, np.exp(-v))

        with pytest.raises(TruncationError) as err:
            tail_integral(f, 0.0)
        assert calls <= 2
        assert err.value.partial == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_truncation_carries_exactly_the_allowed_panels(self):
        # five panels end at 31, so the partial sum is log(1 + 31)
        asked = []

        def f(v):
            asked.append(v.max())
            return 1.0 / (1.0 + v)

        with pytest.raises(TruncationError) as err:
            tail_integral(f, 0.0, Tolerance(max_iter=5))
        assert err.value.partial == pytest.approx(math.log(32.0), rel=1e-10)
        assert type(err.value.partial) is float
        assert max(asked) == 31.0

    def test_smooth_tail_takes_one_call(self):
        # rate 0.005 stops on the panel [8191, 16383], within the first 16
        calls = 0

        def f(v):
            nonlocal calls
            calls += 1
            return np.exp(-0.005 * v)

        assert tail_integral(f, 0.0) == pytest.approx(200.0, rel=1e-12)
        assert calls == 1

    def test_second_group_takes_one_more_call(self):
        # rate 1/30000 stops past 2**16 - 1, the end of the first 16
        # panels, so the next 16, [2**16 - 1, 2**32 - 1], come in one call
        asked = []

        def f(v):
            asked.append((v.min(), v.max()))
            return np.exp(-v / 30000.0)

        assert tail_integral(f, 0.0) == pytest.approx(30000.0, rel=1e-12)
        assert asked == [(0.0, 2.0**16 - 1.0), (2.0**16 - 1.0, 2.0**32 - 1.0)]

    def test_partial_last_group(self):
        # 20 panels are 16 and then 4, which end at 2**20 - 1
        asked = []

        def f(v):
            asked.append(v.max())
            return 1.0 / (1.0 + v)

        with pytest.raises(TruncationError) as err:
            tail_integral(f, 0.0, Tolerance(max_iter=20))
        assert err.value.partial == pytest.approx(math.log(2.0**20), rel=1e-10)
        assert max(asked) == 2.0**20 - 1.0

    def test_pinned_value_from_zero(self):
        # sqrt(psi) on line (10, 1, 12), psi(v) = (5/6) exp(-v/6); the
        # exact value is 12 sqrt(5/6), and this float is the kernel's
        # result, bit for bit, from the nodes of the doubling panels at 0
        line = ExponentialLine(10.0, 1.0, 12.0)
        got = tail_integral(lambda v: np.sqrt(ultimate_ruin(line, v)), 0.0)
        assert got == 10.954451150103326
        assert got == pytest.approx(12.0 * math.sqrt(5.0 / 6.0), rel=1e-15)
        assert type(got) is float

    def test_start_offset_consistency(self):
        f = lambda v: 0.5 * np.exp(-0.2 * v)
        whole = tail_integral(f, 0.0)
        head = 0.5 / 0.2 * (1.0 - math.exp(-0.2 * 4.0))
        assert whole - head == pytest.approx(tail_integral(f, 4.0), rel=1e-8)


class TestVectorTailIntegral:
    """tail_integral on vector-valued integrands: one row per integrand."""

    @pytest.mark.parametrize("start", [0.0, 3.7, 50.0])
    def test_exponential_rows(self, start):
        b = np.array([0.005, 0.05, 1.0])[:, None]
        exact = (0.8 / b[:, 0]) * np.exp(-b[:, 0] * start)
        got = tail_integral(lambda v: 0.8 * np.exp(-b * v), start)
        assert got == pytest.approx(exact, rel=1e-12)

    def test_rows_share_nodes_with_a_kink(self):
        # the kink at 2.3 in the second row bisects the panel [1, 3], or
        # [1.7, 3.7] from 0.7, for both rows
        for start in (0.0, 0.7):
            calls = []

            def f(v):
                calls.append(v.size)
                return np.vstack((np.exp(-v * v), np.maximum(0.0, 2.3 - v)))

            got = tail_integral(f, start)
            gauss = 0.5 * math.sqrt(math.pi) * math.erfc(start)
            assert got == pytest.approx([gauss, 0.5 * (2.3 - start) ** 2], abs=1e-9)
            assert 4 < len(calls) < 40

    def test_matches_scalar_panels(self):
        # one row and one value per node give the same closed form: with
        # sin^2 v = (1 - cos 2v) / 2 the integrand is
        # 0.5 e^(-0.2 v) (1.5 - 0.5 cos 2v), integrated exactly over [2, inf)
        f = lambda v: 0.5 * np.exp(-0.2 * v) * (1.0 + np.sin(v) ** 2)
        edge = math.exp(-0.2 * 2.0)
        exact = 0.5 * (
            1.5 * edge / 0.2
            - 0.5 * edge * (0.2 * math.cos(4.0) - 2.0 * math.sin(4.0)) / (0.04 + 4.0)
        )
        vec = tail_integral(lambda v: f(v)[None, :], 2.0)
        assert vec[0] == pytest.approx(exact, rel=1e-9)
        assert tail_integral(f, 2.0) == pytest.approx(exact, rel=1e-9)

    def test_nondecaying_row_raises(self):
        with pytest.raises(TruncationError) as err:
            tail_integral(lambda v: np.vstack((np.exp(-v), 1.0 / (1.0 + v))), 0.0)
        assert err.value.partial[0] == pytest.approx(1.0, rel=1e-12)
        assert err.value.partial[1] > 0.0
