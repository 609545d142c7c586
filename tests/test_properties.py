"""Property tests over the closed-form curves, the allocation and numeric
kernels, and the command line.  Every property is derandomised, so a run
checks the same examples each time."""

import contextlib
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxdeficit import (
    DeficitFunctional,
    Distortion,
    Tolerance,
    TruncationError,
    lambert_w0,
    line_from_ruin_constants,
    method1_exponential,
    method1_generic,
    ruin_constants,
    tail_integral,
    ultimate_ruin,
)
from maxdeficit.cli import main

FIXED = settings(derandomize=True, deadline=None, database=None)

DISTORTIONS = st.one_of(
    st.just(Distortion("identity")),
    st.builds(Distortion, st.just("ph"), st.floats(0.05, 1.0)),
    st.builds(Distortion, st.sampled_from(["tvar", "varstep"]), st.floats(0.005, 0.99)),
)


LINES = st.builds(line_from_ruin_constants, st.floats(0.0, 0.99), st.floats(1e-3, 2.0))
UNIT = st.floats(0.0, 1.0)


@st.composite
def closed_curves(draw):
    line = draw(LINES)
    return DeficitFunctional.for_line(line, draw(DISTORTIONS)), ruin_constants(line).b


class TestClosedCurve:
    # every kind: D is nonincreasing, midpoint-convex, and D(0) - u below zero
    @settings(FIXED, max_examples=200)
    @given(closed_curves(), UNIT, UNIT, st.floats(0.0, 50.0))
    def test_shape(self, curve, u_frac, h_frac, below):
        d, b = curve
        # reserves out to eight decay lengths
        u, h = u_frac * 8.0 / b, h_frac * 8.0 / b
        du, dh = d(u), d(u + h)
        slack = 1e-12 * max(1.0, du)
        assert dh <= du + slack
        assert d(u + 0.5 * h) <= 0.5 * (du + dh) + slack
        d0 = d(0.0)
        assert d(-below) == pytest.approx(d0 + below, rel=1e-12, abs=1e-12)


@st.composite
def water_filling(draw):
    k = draw(st.integers(1, 5))
    lines = tuple(draw(LINES) for _ in range(k))
    if all(ruin_constants(line).a == 0.0 for line in lines):
        lines += (line_from_ruin_constants(0.5, 0.1),)
    gammas = tuple(draw(st.floats(1.0, 4.0)) for _ in lines)
    total = draw(st.floats(0.0, 500.0))
    return lines, total, gammas


class TestMethod1Exponential:
    @settings(FIXED, max_examples=150)
    @given(water_filling())
    def test_budget_and_level_equalisation(self, problem):
        lines, total, gammas = problem
        res = method1_exponential(lines, total, gammas)
        u = res.reserves
        assert np.all(u >= 0.0)
        assert u.sum() == pytest.approx(total, rel=1e-10, abs=1e-10)
        # m_k(u_k) = a_k**(1/gamma_k) exp(-b_k u_k / gamma_k): equal to the
        # threshold on lines that hold reserve, at most it on the others
        for i, (line, gamma) in enumerate(zip(lines, gammas)):
            k = ruin_constants(line)
            level = k.a ** (1.0 / gamma) * math.exp(-k.b * u[i] / gamma)
            if i in res.active:
                assert level == pytest.approx(res.threshold, rel=1e-8)
            else:
                assert u[i] == 0.0
                assert level <= res.threshold * (1.0 + 1e-12)


def pareto_tail(n, sigma, alpha):
    """The marginal (1 + u/sigma)**-n, under tvar(alpha) unless alpha is
    None, and its integral from u, in closed form: flat at 1 up to the
    edge where the tail falls to alpha."""
    cap = 1.0 if alpha is None else alpha
    edge = sigma * (cap ** (-1.0 / n) - 1.0)

    def marginal(u):
        return np.minimum((1.0 + np.asarray(u) / sigma) ** -n / cap, 1.0)

    def deficit(u):
        x = max(u, edge)
        return x - u + sigma / ((n - 1.0) * cap) * (1.0 + x / sigma) ** (1.0 - n)

    return marginal, deficit


@st.composite
def marginal_sums(draw):
    """2-4 marginals with their deficits in closed form, and a budget."""
    pairs = []
    for _ in range(draw(st.integers(2, 4))):
        kind = draw(st.sampled_from(["ph", "tvar", "pareto"]))
        if kind == "pareto":
            n, sigma = draw(st.floats(1.5, 6.0)), draw(st.floats(0.1, 20.0))
            pairs.append(pareto_tail(n, sigma, draw(st.one_of(st.none(), st.floats(0.01, 0.9)))))
        else:
            a, b = draw(st.floats(0.05, 0.95)), draw(st.floats(0.005, 0.5))
            line = line_from_ruin_constants(a, b)
            param = draw(st.floats(0.2, 1.0) if kind == "ph" else st.floats(0.01, 0.9))
            g = Distortion(kind, param)
            marginal = lambda u, line=line, g=g: g(ultimate_ruin(line, u))
            pairs.append((marginal, DeficitFunctional.for_line(line, g)))
    return pairs, 10.0 ** draw(st.floats(-3.0, 3.0))


class TestMethod1Generic:
    @settings(FIXED, max_examples=150)
    @given(marginal_sums())
    def test_split_is_optimal(self, case):
        pairs, total = case
        marginals, deficits = zip(*pairs)
        res = method1_generic(list(marginals), total)
        u = res.reserves
        assert u.sum() == pytest.approx(total, rel=1e-12)
        assert res.kkt_residual <= 1e-10
        for k, m in enumerate(marginals):
            if k not in res.active:
                assert m(0.0) <= res.threshold * (1.0 + 1e-10)
        objective = lambda x: sum(d(float(xk)) for d, xk in zip(deficits, x))
        best = objective(u)
        assert res.objective == pytest.approx(best, rel=1e-9)
        # no move of 5 % of the budget from one line to another helps
        move = 0.05 * total
        for i, j in itertools.permutations(range(u.size), 2):
            if u[i] >= move:
                moved = u.copy()
                moved[i] -= move
                moved[j] += move
                assert objective(moved) >= best * (1.0 - 1e-9)


class TestLambertW:
    @settings(FIXED, max_examples=300)
    @given(st.floats(-math.exp(-1.0), 1e12))
    def test_residual(self, y):
        w = lambert_w0(y)
        assert w >= -1.0
        assert abs(w * math.exp(w) - y) <= 1e-13 * max(1.0, abs(y))


class TestTailIntegral:
    # a mixture of exponentials cut off by a step: smooth panels, one jump,
    # and panels past the cut that must be sampled but never added
    @settings(FIXED, max_examples=40)
    @given(
        st.lists(st.tuples(st.floats(0.05, 2.0), st.floats(1e-3, 3.0)), min_size=1, max_size=3),
        st.floats(0.0, 60.0),
    )
    def test_cut_mixture(self, terms, cut):
        c, r = np.array(terms).T[:, :, None]
        asked = []

        def f(v):
            asked.append(v.max())
            return np.where(v < cut, (c * np.exp(-r * v)).sum(axis=0), 0.0)

        exact = float(np.sum(-c[:, 0] * np.expm1(-r[:, 0] * cut) / r[:, 0]))
        assert tail_integral(f, 0.0) == pytest.approx(exact, rel=0.0, abs=1e-9)
        # the stopping panel is the last of the fewest panels that return;
        # panel i of a tail from 0 ends at 2**(i + 1) - 1
        farthest = max(asked)
        stop = 0
        while True:
            try:
                tail_integral(f, 0.0, Tolerance(max_iter=stop + 1))
                break
            except TruncationError:
                stop += 1
        assert farthest <= 2.0 ** (stop + 17) - 1.0


# argv tokens with values valid and invalid for each flag; --out and
# --config are left out so no run touches a file, and check, which takes
# no input beyond the seed, is left out for time
_FLAGS = {
    "--line": ["10,1,12", "1,10,15", "0,1,1", "1,1,0.5", "nan,1,2", "1,2", "a,b,c",
               "-1,1,2", "1e308,1e308,1e308"],
    "--g": ["identity", "ph:0.5", "ph:1", "tvar:0.1", "varstep:0.3", "ph:2", "tvar:0",
            "varstep:nan", "bogus"],
    "--A": ["2", "0", "-1", "nan", "inf", "1,2", "", "1e300", "1e-300"],
    "--delta": ["0.05", "0", "-1", "nan", "inf", "0.1,0.2", "1e300", "1e-300"],
    "--u": ["0", "10", "-5", "nan", "inf", "1,2", "1e6"],
    "--t": ["1", "5", "0", "-1", "inf", "nan", "abc"],
    "--n": ["1000", "100", "10", "0", "-5", "abc", "1.5"],
    "--seed": ["0", "7", "-1", "abc", "99999999999999999999"],
    "--gamma": ["1,1", "0.5", "2,1,1", "nan"],
    "--method": ["marginal-sum", "aggregate-min", "bogus"],
    "--r-grid": ["0.02:0.88:3", "0.5:0.9:2", "1:2:2", "a:b:c", "0.1:0.2:0"],
    "--mu": ["1", "0", "-1", "nan"],
    "--c": ["1", "0", "-2", "inf"],
    "--alpha": ["0.05", "2", "nan"],
    "--precision": ["3", "0", "-1", "40"],
    "--format": ["table", "csv", "bogus"],
}
# each command with the flags it needs, which every argv carries so most
# runs get past the parser
_COMMANDS = [
    (["measure", "coherent"], []),
    (["measure", "convex"], ["--A"]),
    (["measure", "proportional"], ["--delta"]),
    (["measure", "ear"], ["--A"]),
    (["measure", "premium-bound"], ["--n"]),
    (["allocate"], ["--u"]),
    (["table", "2"], []),
    (["figure"], ["--r-grid"]),
    (["simulate"], ["--t", "--n", "--seed"]),
    (["measure", "bogus"], []),
    ([], []),
]


@st.composite
def argvs(draw):
    command, needs = draw(st.sampled_from(_COMMANDS))
    argv = list(command)
    good_lines = st.sampled_from(_FLAGS["--line"][:4])
    lines = draw(st.lists(good_lines, min_size=1, max_size=3))
    flags = needs + draw(st.lists(st.sampled_from(sorted(_FLAGS)), max_size=3))
    for line in lines:
        argv += ["--line", line]
    for flag in flags:
        argv += [flag, draw(st.sampled_from(_FLAGS[flag]))]
    return argv


class TestCliFuzz:
    @settings(FIXED, max_examples=250)
    @given(argvs())
    def test_exits_with_documented_codes(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3, 4), (argv, err.getvalue())
