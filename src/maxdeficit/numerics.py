"""Numerical kernels.

Three routines cover every solver need in the package:

- brent_root:     bracketed root finding (bisection / secant / inverse
                  quadratic interpolation, Brent's switching logic)
- lambert_w0:     principal branch of w*exp(w) = y via Halley iteration,
                  and past y = 1e300 via Newton steps on w + ln w = ln y
                  (lambert_w0_log, which also takes ln y past the
                  largest float)
- tail_integral:  integral over [a, inf) of one or several decaying
                  integrands sampled together on arrays.  A caller that
                  knows the integrands' decay length s passes it, and
                  the integrand is called once on a 241-node exp-sinh
                  layout built at import (Takahasi & Mori 1974); its
                  sums with steps 1/32 and 1/16 in t are returned where
                  they agree, every value is finite and both weighted
                  end terms are below abs_tol.  QuadratureCurve and
                  choquet_tail pass 1/(p r) from the tail's own
                  log-decrement r over [k, k + 1] at their kink k (p the
                  power of g's primitive), or none where r is not
                  finite and positive; the pooled pass passes 1/min(b)
                  and method1_generic 1/min(rate) of its grid fits; the
                  CLI's check command passes none.
                  Otherwise, and always without s, doubling panels with
                  adaptive 20-point Gauss-Lobatto (Legendre) quadrature
                  per panel run: the integrand is called once per group
                  of 16 panels, whose nodes and half-widths are a layout
                  built once at import and scaled to the group, and once
                  per depth of bisection, so it may be sampled past the
                  point where accumulation stops; a span with a NaN
                  estimate is never bisected, and a panel that is not
                  finite raises TruncationError once it would be added,
                  as does a call that would sample more than 2**20 nodes
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BracketingError, ConvergenceError, DomainError, TruncationError


@dataclass(frozen=True)
class Tolerance:
    """Stopping control shared by the iterative kernels: positive finite
    tolerances and an int max_iter >= 1, else DomainError."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        for tol in (self.abs_tol, self.rel_tol):
            if not (_is_real(tol) and 0.0 < tol < math.inf):
                raise DomainError(f"tolerances must be positive and finite: {tol!r}")
        it = self.max_iter
        if not (_is_real(it) and isinstance(it, numbers.Integral) and it >= 1):
            raise DomainError(f"max_iter must be an int >= 1, got {it!r}")


def _is_real(x):
    # a bool is an int to Python, but not a tolerance or a count
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


DEFAULT_TOL = Tolerance()


def brent_root(f, lo, hi, tol=DEFAULT_TOL):
    """Root of f on [lo, hi] where f(lo) and f(hi) have opposite signs.

    Returns x with |f(x)| <= abs_tol or with the bracket narrowed to
    rel_tol*|x| + abs_tol.  Raises BracketingError when the endpoints do
    not straddle a sign change and ConvergenceError when max_iter steps
    do not settle the bracket.
    """
    a, b = float(lo), float(hi)
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
    lambert_w0_log(ln y).  y < -1/e and a y that is not finite raise
    DomainError.
    """
    y = float(y)
    if not _BRANCH_POINT <= y < math.inf:
        raise DomainError(f"lambert_w0 needs a finite y >= -1/e, got {y}")
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
_RULE_X = np.concatenate((-_RULE_HALF[::-1, 0], _RULE_HALF[:, 0]))
_RULE_W = np.concatenate((_RULE_HALF[::-1, 1], _RULE_HALF[:, 1]))
# only a jump drives bisection this deep, and it is then located to
# 2**-48 of its panel's width
_MAX_DEPTH = 48
# doubling panels sampled together in one call of the integrand; those
# past the panel where accumulation stops are sampled, and bisected where
# their halves disagree, but never added, so a larger group adds nodes to
# every integral, however smooth
_GROUP = 16
# columns of a span's ends, midpoint and quarter points that bound its halves
_CHILD_ENDS = np.array([0, 2, 2, 4])
# integrand nodes that one call of tail_integral may sample, stage and
# panels together; past them it raises TruncationError, so that no
# tolerance can make bisection allocate without limit
_NODE_BUDGET = 2**20


def _nodes(lo, hi):
    # the rule's nodes on the spans [lo, hi], arrays of one shape, with
    # the spans' half-widths
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi))[..., None] + half[..., None] * _RULE_X, half


def _estimates(f, lo, hi):
    # rule estimates over the spans [lo, hi], arrays of one shape, from
    # one call of f; f's trailing axis runs over the points, so with m
    # rows the estimates have shape (m,) + lo.shape, and with one value
    # per point the row axis is absent
    nodes, half = _nodes(lo, hi)
    y = np.asarray(f(nodes.ravel()), dtype=float)
    return (y.reshape(y.shape[:-1] + nodes.shape) @ _RULE_W) * half


# The unit group, built once: the first _GROUP panels from 0 with first
# width 1, [2**j - 1, 2**(j + 1) - 1], each as its left edge, midpoint and
# right edge.  A group from left with first width h has its panels' edges
# at left + h * _UNIT_SPAN, its nodes at left + h * _UNIT_NODES, by panel,
# then whole panel and its two halves, then node, and its spans' half-widths
# h * _UNIT_HALF, exact multiples of the unit's as h is a power of 2; the
# group after it starts at left + h * _UNIT_EDGES[-1] with first width
# h * 2**_GROUP.  The first group from 0 is the unit group itself, so its
# nodes are those of the panels laid out one by one; from another edge a
# node may round an ulp away from theirs.
_UNIT_EDGES = np.exp2(np.arange(_GROUP + 1.0)) - 1.0
_UNIT_MARKS = np.column_stack(
    (_UNIT_EDGES[:-1], 0.5 * (_UNIT_EDGES[:-1] + _UNIT_EDGES[1:]), _UNIT_EDGES[1:])
)
_UNIT_SPAN = _UNIT_MARKS[:, ::2]
_UNIT_NODES, _UNIT_HALF = _nodes(_UNIT_MARKS[:, (0, 0, 1)], _UNIT_MARKS[:, (2, 1, 2)])
# flat, as arithmetic on one axis is the faster
_PANEL_NODES = _UNIT_NODES[0].size
_UNIT_NODES = _UNIT_NODES.ravel()


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
# weighs every node by +w or -w.  No weight is 0, so an infinite value
# makes both sums infinite or NaN and never multiplies a 0.
_DE_T = np.linspace(-4.0, 3.5, 241)
_DE_X = np.exp(0.5 * math.pi * np.sinh(_DE_T))
_DE_W = (0.5 * math.pi / 32.0) * np.cosh(_DE_T) * _DE_X
_DE_RULES = np.column_stack(
    (_DE_W, np.where(np.arange(_DE_T.size) % 2, _DE_W, -_DE_W))
)
_DE_ENDS = _DE_W[::_DE_T.size - 1]
_DE_END_FIRST, _DE_END_LAST = _DE_ENDS.tolist()


def _one_call(f, a, scale, tol):
    # the step-1/32 sums over [a, inf) from one call of f, or None unless
    # they are finite and agree with the step-1/16 sums to max(abs_tol,
    # rel_tol * |sum|) in every row, and both weighted end terms are below
    # abs_tol; a value that is not finite leaves its row's fine sum
    # infinite or NaN, as does a fine sum that overflows, and the finite
    # check catches both
    y = np.asarray(f(a + scale * _DE_X), dtype=float)
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


def _row_max(x):
    # largest magnitude over every row, one value per entry of the last axis
    x = np.abs(x)
    return x if x.ndim == 1 else x.reshape(-1, x.shape[-1]).max(axis=0)


def _panels(f, y, left, h, tol, budget):
    # integrals over the group's panels from f's values y at its nodes,
    # shape rows + (n, 3, nodes per span), and one call of f per depth of
    # bisection, with the nodes of budget left after them, or None in
    # their place once a depth would need more nodes than are left.
    # Every span whose halves disagree with it by more than its tolerance
    # is split in the same call, across all panels; a span with a NaN
    # estimate compares false and is never split, so it costs no call,
    # and tail_integral raises if it counts.
    n = y.shape[-3]
    est = (y @ _RULE_W) * (h * _UNIT_HALF[:n])
    whole, halves = est[..., 0], est[..., 1:]
    span_tol = np.fmax(tol.abs_tol, tol.rel_tol * _row_max(whole))
    # each depth's sums of halves, and the spans there that were split
    levels = []
    for depth in range(1, _MAX_DEPTH + 1):
        sums = halves[..., 0] + halves[..., 1]
        if depth == _MAX_DEPTH:
            break
        k = (_row_max(sums - whole) > span_tol).nonzero()[0]
        if not k.size:
            break
        budget -= 4 * _RULE_X.size * k.size
        if budget < 0:
            return None, budget
        levels.append((sums, k))
        if depth == 1:
            # the group's panels are placed only once one must be split
            span = left + h * _UNIT_SPAN[:n]
        # the split spans' ends, midpoints and quarter points, in order
        cut = np.empty((k.size, 5))
        cut[:, ::4] = span[k]
        cut[:, 2] = 0.5 * (cut[:, 0] + cut[:, 4])
        cut[:, 1::2] = 0.5 * (cut[:, 0:3:2] + cut[:, 2::2])
        q = _estimates(f, cut[:, :4], cut[:, 1:])
        # children (a, m) and (m, b) of each split span, side by side;
        # each inherits its parent's half as its whole-span estimate
        whole = halves[..., k, :].reshape(q.shape[:-2] + (-1,))
        halves = q.reshape(whole.shape + (2,))
        span = cut[:, _CHILD_ENDS].reshape(-1, 2)
        span_tol = (0.5 * span_tol[k]).repeat(2)
    # a split span's value is its lower child's plus its upper child's,
    # which sit side by side one depth further down: the order of a
    # depth-first recursion
    for parent, k in reversed(levels):
        parent[..., k] = sums[..., 0::2] + sums[..., 1::2]
        sums = parent
    return sums, budget


def _add(total, pieces):
    # total plus the panels' values in order, each row as one running sum
    run = np.empty(pieces.shape[:-1] + (pieces.shape[-1] + 1,))
    run[..., 0] = total
    run[..., 1:] = pieces
    total = np.add.accumulate(run, axis=-1)[..., -1]
    return total if total.ndim else float(total)


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
    decay lengths costs one call; a jump, a kink, a NaN, or a tail still
    above abs_tol at the last node defers to the panels below, which then
    run exactly as without scale.

    Without scale, panels [a, a+1], [a+1, a+3], [a+3, a+7], ... double
    in width; each is integrated by the 20-point Gauss-Lobatto rule and
    accepted when the whole-panel estimate agrees with the sum over its
    two halves to max(abs_tol, rel_tol * panel size) in every row, else
    bisected; a span whose estimates hold a NaN is never bisected.  Panels
    are taken 16 at a time, as a layout built once at import scaled to the
    group's left edge and first width: f is called once for all of them
    and once per depth of bisection, for every span at that depth that
    must be split, so it may be sampled past the panel where accumulation
    stops.  The panels are added in order, each bisected span as its
    lower half plus its upper half, and accumulation stops once every row
    of a panel contributes less than abs_tol in magnitude and is below
    abs_tol in magnitude at the panel's right edge.  A panel that is not
    finite in every row, or max_iter panels that do not reach that state,
    raise TruncationError with the sum over the panels before as its
    partial value.  So does a call of f that would take the nodes sampled
    in this call, stage included, past 2**20: its partial value is the
    sum over the groups of panels before the one that ran out.
    """
    budget = _NODE_BUDGET
    if scale is not None:
        if not 0.0 < scale < math.inf:
            raise DomainError(f"scale must be positive and finite, got {scale}")
        value = _one_call(f, float(a), scale, tol)
        if value is not None:
            return value
        budget -= _DE_T.size
    total = 0.0
    left = float(a)
    h = 1.0
    done = 0
    while done < tol.max_iter:
        n = min(_GROUP, tol.max_iter - done)
        budget -= n * _PANEL_NODES
        if budget >= 0:
            y = np.asarray(f(left + h * _UNIT_NODES[:n * _PANEL_NODES]), dtype=float)
            y = y.reshape(y.shape[:-1] + (n, 3, _RULE_X.size))
            pieces, budget = _panels(f, y, left, h, tol, budget)
        if budget < 0:
            raise TruncationError(
                f"tail integral needs more than {_NODE_BUDGET} integrand nodes", total
            )
        # a panel with a NaN or an infinite row has a peak that is not finite
        peak = _row_max(pieces)
        # the whole panel's last node is its right edge
        stops = np.maximum(peak, _row_max(y[..., 0, -1])) < tol.abs_tol
        ends = np.flatnonzero(stops | ~np.isfinite(peak))
        if ends.size:
            j = ends[0]
            if not math.isfinite(peak[j]):
                partial = _add(total, pieces[..., :j])
                raise TruncationError(f"tail panel {done + j} is not finite", partial)
            return _add(total, pieces[..., :j + 1])
        total = _add(total, pieces)
        done += n
        left += h * _UNIT_EDGES[-1]
        h *= 2.0**_GROUP
    raise TruncationError(
        f"tail integral still active after {tol.max_iter} panels", total
    )
