"""Numerical kernels.

Three routines cover every solver need in the package:

- brent_root:     bracketed root finding (bisection / secant / inverse
                  quadratic interpolation, Brent's switching logic)
- lambert_w0:     principal branch of w*exp(w) = y via Halley iteration,
                  and past y = 1e300 via Newton steps on w + ln w = ln y
                  (lambert_w0_log, which also takes ln y past the
                  largest float)
- tail_integral:  integral over [a, inf) of one or several decaying
                  integrands sampled together on arrays: one call on 241
                  exp-sinh nodes (Takahasi & Mori 1974) given their decay
                  length s, else doubling panels by recursive adaptive
                  20-point Gauss-Lobatto quadrature (Gander & Gautschi,
                  BIT 40, 2000).  A caller passes s = 1/r for an
                  estimate r of the integrands' slowest decay rate, or
                  none where it has no finite positive estimate; then,
                  or where the stage defers, the integral runs on panels
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketingError, ConvergenceError, TruncationError
from .errors import positive_finite, real, whole


@dataclass(frozen=True)
class Tolerance:
    """Stopping control shared by the iterative kernels: positive finite
    tolerances and an int max_iter >= 1, else DomainError."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        for tol in (self.abs_tol, self.rel_tol):
            real(tol, positive_finite, "tolerances must be positive and finite")
        whole(self.max_iter, lambda x: x >= 1, "max_iter must be an int >= 1")


DEFAULT_TOL = Tolerance()


def brent_root(f, lo, hi, tol=DEFAULT_TOL):
    """Root of f on [lo, hi] where f(lo) and f(hi) have opposite signs.

    Returns x with |f(x)| <= abs_tol or with the bracket narrowed to
    rel_tol*|x| + abs_tol.  Raises DomainError unless lo and hi are
    finite real numbers, BracketingError when they do not straddle a
    sign change and ConvergenceError when max_iter steps do not settle
    the bracket.
    """
    a, b = (real(x, math.isfinite, "bracket ends must be finite") for x in (lo, hi))
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise BracketingError(f"no sign change on [{lo}, {hi}]: f={fa}, {fb}")

    c, fc = a, fa
    d = e = b - a
    for _ in range(tol.max_iter):
        if (fb > 0.0) == (fc > 0.0):
            # keep the root bracketed between b and c
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol_w = tol.rel_tol * abs(b) + tol.abs_tol
        m = 0.5 * (c - b)
        if abs(m) <= tol_w or fb == 0.0 or abs(fb) <= tol.abs_tol:
            return b
        if abs(e) < tol_w or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                # secant step
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                # inverse quadratic interpolation through (a, b, c)
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol_w * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        if abs(d) > tol_w:
            b += d
        else:
            b += tol_w if m > 0.0 else -tol_w
        fb = f(b)
    raise ConvergenceError(f"root not settled in {tol.max_iter} iterations")


_BRANCH_POINT = -math.exp(-1.0)


def lambert_w0(y):
    """Principal branch W0(y): the solution w >= -1 of w*exp(w) = y.

    Halley iteration started from log1p(y), or from the branch-point
    series when y is close to -1/e.  Iterates to machine precision, so
    the residual w*exp(w) - y is at rounding level, within
    DEFAULT_TOL.max_iter steps or ConvergenceError.  Past y = 1e300,
    where w*exp(w) - y and the Halley step overflow, it is
    lambert_w0_log(ln y).  y < -1/e and a y that is not a finite real
    number raise DomainError.
    """
    text = "lambert_w0 needs a finite y >= -1/e"
    y = real(y, lambda x: _BRANCH_POINT <= x < math.inf, text)
    if y == _BRANCH_POINT:
        return -1.0
    if y == 0.0:
        return 0.0
    if y > 1e300:
        return lambert_w0_log(math.log(y))

    if math.e * y + 1.0 < 0.25:
        # series around the branch point in p = sqrt(2*(e*y + 1))
        p = math.sqrt(2.0 * (math.e * y + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0
    else:
        w = math.log1p(y)

    for _ in range(DEFAULT_TOL.max_iter):
        ew = math.exp(w)
        r = w * ew - y
        wp1 = w + 1.0
        # near the branch point the step size stalls at rounding noise
        # while the residual is already exact, so accept either
        if r == 0.0 or wp1 == 0.0 or abs(r) <= 4e-16 * abs(y):
            return w
        dw = r / (ew * wp1 - (w + 2.0) * r / (2.0 * wp1))
        w -= dw
        if abs(dw) <= 1e-15 * (1.0 + abs(w)):
            return w
    raise ConvergenceError(f"lambert_w0 did not converge for y={y}")


def lambert_w0_log(log_y):
    """W0(exp(log_y)) for log_y > 1, exp(log_y) past the largest float
    included: Newton steps on w + ln w = log_y from w = log_y, whose
    terms stay near log_y.  They rise to the root from its left after
    the first step, as w + ln w is concave, to machine precision."""
    w = log_y
    for _ in range(DEFAULT_TOL.max_iter):
        dw = (w + math.log(w) - log_y) * w / (w + 1.0)
        w -= dw
        if abs(dw) <= 1e-15 * (1.0 + w):
            return w
    raise ConvergenceError(f"lambert_w0_log did not converge for log_y={log_y}")


# 20-point Gauss-Lobatto rule on [-1, 1] (the Legendre weight, with both
# endpoints among the nodes), written out as its nonnegative nodes and
# their weights (the rule is symmetric) because computing it costs
# milliseconds at import.  Sampling the endpoints is what lets the
# whole-versus-halves test see a jump: an open rule such as
# Gauss-Legendre has no node within 0.7 % of a panel's edge, so a jump
# there, or one near a panel's midpoint where the halves meet, leaves
# the whole panel and its halves agreeing on the wrong value.
_RULE_HALF = np.array([
    (0.08054593723882184, 0.16074328638784574),
    (0.2395517059229865, 0.1565801026474755),
    (0.3923531837139093, 0.14836155407091683),
    (0.5349928640318863, 0.1363004823587242),
    (0.6637764022903113, 0.12070922762867473),
    (0.7753682609520559, 0.10199149969945082),
    (0.8668779780899502, 0.0806317639961196),
    (0.9359344988126654, 0.05718180212756683),
    (0.9807437048939142, 0.03223712318848894),
    (1.0, 0.005263157894736842),
])
_RULE_W = np.concatenate((_RULE_HALF[::-1, 1], _RULE_HALF[:, 1]))
# the nodes on [0, 2]: a span [lo, lo + w] has them at lo + (w / 2) * _RULE_UP,
# as its edges' sum or difference is not finite from +inf or near 1.8e308
_RULE_UP = 1.0 + np.concatenate((-_RULE_HALF[::-1, 0], _RULE_HALF[:, 0]))
# a span [lo, lo + w] has its quarters' nodes at lo + (w / 8) * _QUARTERS_UP
_QUARTERS_UP = _RULE_UP + 2.0 * np.arange(4.0)[:, None]
# only a jump drives bisection this deep, and it is then located to
# 2**-48 of its panel's width
_MAX_DEPTH = 48
# doubling panels sampled in one call, from left with first width h at
# left + h * _UNIT_EDGES; those past the panel where accumulation stops are
# never settled, but a larger group adds nodes to every integral
_GROUP = 16
_UNIT_EDGES = np.exp2(np.arange(_GROUP + 1.0)) - 1.0
# integrand nodes that one call of tail_integral may sample, stage and
# panels together; past them it raises TruncationError, so that no
# tolerance can make bisection allocate without limit
_NODE_BUDGET = 2**20


# The one-call stage: x = a + s exp((pi/2) sinh t) maps t in (-inf, inf)
# onto (a, inf) (Takahasi & Mori, "Double exponential formulas for
# numerical integration", Publ. RIMS 9, 1974), and the trapezoid rule in t
# converges geometrically for an integrand analytic near (a, inf) that
# decays past a few decay lengths s.  t runs from -4, where x - a is
# 2.4e-19 s, to 3.5, where it is 1.9e11 s, in steps of 1/32; the even
# nodes form the embedded rule with step 1/16, whose weights are twice
# theirs.  One matmul with two weight columns, built once here for s = 1,
# gives the fine sum and its gap to the embedded one: that gap is the
# odd nodes' weighted sum less the even nodes', so the second column
# weighs every node by +w or -w.  No weight is 0, so a NaN value, as
# _values makes an infinite one, makes both sums NaN.
_DE_T = np.linspace(-4.0, 3.5, 241)
_DE_X = np.exp(0.5 * math.pi * np.sinh(_DE_T))
_DE_W = (0.5 * math.pi / 32.0) * np.cosh(_DE_T) * _DE_X
_DE_RULES = np.column_stack(
    (_DE_W, np.where(np.arange(_DE_T.size) % 2, _DE_W, -_DE_W))
)
_DE_ENDS = _DE_W[::_DE_T.size - 1]
_DE_END_FIRST, _DE_END_LAST = _DE_ENDS.tolist()
_DE_REACH = float(_DE_X[-1])


def _values(f, x):
    # f at the points x as floats, +inf and -inf as NaN, so that no sum meets
    # inf - inf; np.vdot never warns, and where it is finite none is infinite
    y = np.asarray(f(x), dtype=float)
    if not math.isfinite(np.vdot(y, y)):
        y = np.where(np.isinf(y), np.nan, y)
    return y


def _one_call(f, a, scale, tol):
    # the step-1/32 sums over [a, inf) from one call of f, or None unless
    # they are finite and agree with the step-1/16 sums to max(abs_tol,
    # rel_tol * |sum|) in every row, and both weighted end terms are below
    # abs_tol; a value that is not finite leaves its row's fine sum
    # infinite or NaN, as does a fine sum that overflows, and the finite
    # check catches both
    y = _values(f, a + scale * _DE_X)
    sums = y @ _DE_RULES
    if y.ndim == 1:
        # one row: the same tests on Python floats, with no further numpy calls
        fine, gap = sums.tolist()
        fine *= scale
        if (
            math.isfinite(fine)
            and abs(gap * scale) <= max(tol.abs_tol, tol.rel_tol * abs(fine))
            and abs(y.item(0)) * (scale * _DE_END_FIRST) < tol.abs_tol
            and abs(y.item(-1)) * (scale * _DE_END_LAST) < tol.abs_tol
        ):
            return fine
        return None
    sums *= scale
    fine = sums[..., 0]
    gap = np.abs(sums[..., 1])
    ends = np.abs(y[..., ::_DE_T.size - 1]) * (scale * _DE_ENDS)
    if (
        np.isfinite(fine).all()
        and (gap <= np.fmax(tol.abs_tol, tol.rel_tol * np.abs(fine))).all()
        and (ends < tol.abs_tol).all()
    ):
        return fine
    return None


def _above_minus_inf(x):
    return x > -math.inf


def tail_integral(f, a, tol=DEFAULT_TOL, scale=None):
    """Integral over [a, inf) of one or several decaying integrands.

    f maps an ndarray of n points to n values, which gives a float
    result, or to an (m, n) array, one row per integrand, which gives m
    results from integrands sampled at the same nodes in one call.

    scale, a positive finite decay length s of the integrands, asks for
    the one-call stage first: f is called once on 241 exp-sinh nodes
    a + s exp((pi/2) sinh t), t = -4, -4 + 1/32, ..., 3.5, and the
    trapezoid sums on them are the result where they agree with the sums
    on every other node to max(abs_tol, rel_tol * |sum|) in every row,
    every value is finite, and the weighted terms at both ends are below
    abs_tol.  So an integrand smooth past a and decaying within about 1e11
    decay lengths costs one call; a jump, a kink, a value that is not
    finite, or a tail still above abs_tol at the last node defers to the
    panels below, which then run exactly as without scale, as does a
    scale, or a finite a, whose last node, 1.9e11 s past a, would pass
    the largest float.  a is a real number above -inf, +inf included,
    and scale positive and finite, else DomainError.

    Without scale, panels [a, a+1], [a+1, a+3], [a+3, a+7], ... double in
    width.  Each is integrated by the 20-point Gauss-Lobatto rule and is
    the sum over its halves where that agrees with the whole-panel
    estimate to max(abs_tol, rel_tol * panel size) in every row, else its
    lower half and then its upper half settled alike, with half the
    tolerance, down to 48 halvings; a span that holds a value that is not
    finite is never split.  f is called once per group of 16 panels, on
    each panel and its halves, past the panel where accumulation stops
    too, and once per split span, on its quarters.  The panels are added
    in order until every row of one contributes less than abs_tol in
    magnitude and is below abs_tol in magnitude at its right edge; the
    tail past it is dropped, so a tail wholly below abs_tol is lost, an
    error that can exceed abs_tol.  A panel that is not finite in every
    row, max_iter panels that do not stop, or a call of f that would take
    the nodes sampled in this call, stage included, past 2**20 raise
    TruncationError with the sum over the panels before as its partial.
    """
    budget, total = _NODE_BUDGET, 0.0
    a = real(a, _above_minus_inf, "lower end must be a real number > -inf")
    if scale is not None:
        scale = real(scale, positive_finite, "scale must be positive and finite")
        # on Python floats, which overflow to inf with no warning; a = inf
        # keeps the stage, whose nodes are then all inf
        reach = scale * _DE_REACH
        if reach < math.inf and (a + reach < math.inf or a == math.inf):
            value = _one_call(f, a, scale, tol)
            if value is not None:
                return value
            budget -= _DE_T.size

    def estimates(nodes, half):
        # rule estimates over spans from one call of f at their nodes, shape
        # spans + (20,), and their half-widths, with f's values there
        nonlocal budget
        budget -= nodes.size
        if budget < 0:
            text = f"tail integral needs more than {_NODE_BUDGET} integrand nodes"
            raise TruncationError(text, total)
        y = _values(f, nodes.ravel())
        y = y.reshape(y.shape[:-1] + nodes.shape)
        return (y @ _RULE_W) * half, y

    def settle(lo, w, whole, halves, span_tol, depth):
        # [lo, lo + w]: its halves' sum where that agrees with whole to
        # span_tol in every row (NaN compares false), else each half settled
        sums = halves[..., 0] + halves[..., 1]
        if depth == _MAX_DEPTH or not _peak(sums - whole) > span_tol:
            return sums
        q, _ = estimates(lo + (0.125 * w) * _QUARTERS_UP, 0.125 * w)
        w, span_tol = 0.5 * w, 0.5 * span_tol
        lower = settle(lo, w, halves[..., 0], q[..., :2], span_tol, depth + 1)
        return lower + settle(lo + w, w, halves[..., 1], q[..., 2:], span_tol, depth + 1)

    left, h = a, 1.0
    for done in range(0, tol.max_iter, _GROUP):
        n = min(_GROUP, tol.max_iter - done)
        lo, w = left + h * _UNIT_EDGES[:n, None], h * (_UNIT_EDGES[:n, None] + 1.0)
        # each panel as its whole span, its lower half and its upper half
        edges, half = lo + w * (0.0, 0.0, 0.5), w * (0.5, 0.25, 0.25)
        est, y = estimates(edges[..., None] + half[..., None] * _RULE_UP, half)
        for j in range(n):
            whole = est[..., j, 0]
            span_tol = max(tol.abs_tol, tol.rel_tol * _peak(whole))
            piece = settle(lo[j, 0], w[j, 0], whole, est[..., j, 1:], span_tol, 1)
            peak = _peak(piece)
            if not peak < math.inf:  # NaN or inf
                raise TruncationError(f"tail panel {done + j} is not finite", total)
            # a float where f gives one row
            total = total + (piece if piece.ndim else float(piece))
            # the whole panel's last node is its right edge
            if peak < tol.abs_tol and _peak(y[..., j, 0, -1]) < tol.abs_tol:
                return total
        left += h * _UNIT_EDGES[-1]
        h *= 2.0**_GROUP
    text = f"tail integral still active after {tol.max_iter} panels"
    raise TruncationError(text, total)


def _peak(x):
    # the largest magnitude over the rows, NaN where one is NaN
    x = abs(x)
    return x.max() if x.ndim else x
