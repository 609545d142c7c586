"""Exponential-severity line model: ruin constants and the ultimate
ruin curve."""

import math

import numpy as np
import pytest

from maxdeficit import (
    DomainError,
    ExponentialLine,
    line_from_ruin_constants,
    ruin_constants,
    ultimate_ruin,
)
from conftest import LINE1, LINE2, LINE3


class TestRuinConstants:
    def test_reference_lines_to_four_decimals(self):
        expected = [(0.8333, 0.1667), (0.6667, 0.0333), (0.5000, 0.0050)]
        for line, (a, b) in zip((LINE1, LINE2, LINE3), expected):
            k = ruin_constants(line)
            assert abs(k.a - a) < 5e-5
            assert abs(k.b - b) < 5e-5

    def test_reference_lines_exact_fractions(self):
        k1 = ruin_constants(LINE1)
        assert k1.a == pytest.approx(5.0 / 6.0, abs=1e-14)
        assert k1.b == pytest.approx(1.0 / 6.0, abs=1e-14)
        k2 = ruin_constants(LINE2)
        assert k2.a == pytest.approx(2.0 / 3.0, abs=1e-14)
        assert k2.b == pytest.approx(1.0 / 30.0, abs=1e-14)
        k3 = ruin_constants(LINE3)
        assert (k3.a, k3.b) == (pytest.approx(0.5), pytest.approx(0.005))

    def test_adjustment_coefficient_range(self, rng):
        for _ in range(50):
            mu = rng.uniform(0.2, 50.0)
            lam = rng.uniform(0.01, 20.0)
            c = lam * mu * rng.uniform(1.01, 3.0)
            r = ruin_constants(ExponentialLine(lam, mu, c)).b
            assert 0.0 < r < 1.0 / mu

    def test_no_claims_line(self):
        k = ruin_constants(ExponentialLine(0.0, 2.0, 1.0))
        assert k.a == 0.0
        assert k.b == pytest.approx(0.5)


class TestUltimateRuin:
    def test_at_zero_equals_baseline(self):
        assert ultimate_ruin(LINE1, 0.0) == pytest.approx(5.0 / 6.0, abs=1e-14)

    def test_reference_point(self):
        assert ultimate_ruin(LINE1, 2.78) == pytest.approx(0.5243, abs=1e-3)
        assert ultimate_ruin(LINE1, 2.78) == pytest.approx(
            (5.0 / 6.0) * math.exp(-2.78 / 6.0), abs=1e-14
        )

    def test_negative_capital_is_certain_ruin(self):
        for line in (LINE1, LINE2, LINE3):
            assert ultimate_ruin(line, -1.0) == 1.0
            assert ultimate_ruin(line, -1e-12) == 1.0

    def test_array_matches_floats(self, rng):
        u = np.concatenate(([-2.0, -1e-12, 0.0], rng.uniform(0.0, 60.0, size=20)))
        vals = ultimate_ruin(LINE2, u)
        assert vals.shape == u.shape
        assert list(vals) == pytest.approx(
            [ultimate_ruin(LINE2, float(x)) for x in u], rel=1e-15, abs=0.0
        )
        assert isinstance(ultimate_ruin(LINE2, 3.0), float)

    def test_float_path_matches_array_form(self, rng):
        for line in (LINE1, LINE2, LINE3):
            # NaN raises on both paths (tests/test_input_rules.py)
            u = [0.0, -0.0, -3.0, -1e-300, -math.inf, math.inf]
            u += list(rng.uniform(-5.0, 200.0, size=50))
            scalar = [ultimate_ruin(line, x) for x in u]
            assert all(type(v) is float for v in scalar)
            np.testing.assert_allclose(
                scalar, ultimate_ruin(line, np.array(u)), rtol=1e-15, atol=0.0
            )

    def test_decreasing_and_bounded(self, rng):
        u = np.sort(rng.uniform(0.0, 60.0, size=40))
        vals = np.array([ultimate_ruin(LINE2, x) for x in u])
        assert np.all(np.diff(vals) <= 0.0)
        assert np.all(vals <= 2.0 / 3.0 + 1e-14)
        assert np.all(vals > 0.0)


class TestValidation:
    def test_premium_must_beat_claim_rate(self):
        with pytest.raises(DomainError):
            ExponentialLine(1.0, 10.0, 5.0)
        with pytest.raises(DomainError):
            ExponentialLine(1.0, 10.0, 10.0)  # zero loading is not enough

    def test_bad_parameters(self):
        with pytest.raises(DomainError):
            ExponentialLine(-1.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            ExponentialLine(1.0, 0.0, 2.0)
        with pytest.raises(DomainError):
            ExponentialLine(1.0, -2.0, 2.0)
        for bad in (math.nan, math.inf):
            for params in ((bad, 1.0, 12.0), (10.0, bad, 12.0), (10.0, 1.0, bad)):
                with pytest.raises(DomainError):
                    ExponentialLine(*params)


class TestFromRuinConstants:
    def test_round_trip(self):
        for line in (LINE1, LINE2, LINE3):
            k = ruin_constants(line)
            rebuilt = line_from_ruin_constants(k.a, k.b, c=line.c)
            assert rebuilt.lam == pytest.approx(line.lam, rel=1e-12)
            assert rebuilt.mu == pytest.approx(line.mu, rel=1e-12)
            back = ruin_constants(rebuilt)
            assert back.a == pytest.approx(k.a, rel=1e-12)
            assert back.b == pytest.approx(k.b, rel=1e-12)

    def test_default_premium(self):
        line = line_from_ruin_constants(0.9, 0.05)
        k = ruin_constants(line)
        assert line.c == 1.0
        assert k.a == pytest.approx(0.9, rel=1e-12)
        assert k.b == pytest.approx(0.05, rel=1e-12)

    def test_invalid_constants(self):
        with pytest.raises(DomainError):
            line_from_ruin_constants(1.0, 0.1)
        with pytest.raises(DomainError):
            line_from_ruin_constants(-0.1, 0.1)
        with pytest.raises(DomainError):
            line_from_ruin_constants(0.5, 0.0)
