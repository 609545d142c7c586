"""Numerical kernels.

Three routines cover every solver need in the package:

- brent_root:     bracketed root finding (bisection / secant / inverse
                  quadratic interpolation, Brent's switching logic)
- lambert_w0:     principal branch of w*exp(w) = y via Halley iteration
- tail_integral:  integral over [a, inf) of one or several decaying
                  integrands sampled together on arrays, on successive
                  doubling panels with adaptive 20-point Gauss-Lobatto
                  (Legendre) quadrature per panel
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketingError, ConvergenceError, DomainError, TruncationError


@dataclass(frozen=True)
class Tolerance:
    """Stopping control shared by the iterative kernels."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_iter: int = 200


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


def lambert_w0(y, tol=DEFAULT_TOL):
    """Principal branch W0(y): the solution w >= -1 of w*exp(w) = y.

    Halley iteration started from log1p(y), or from the branch-point
    series when y is close to -1/e.  Iterates to machine precision, so
    the residual w*exp(w) - y is at rounding level.  y < -1/e raises
    DomainError.
    """
    y = float(y)
    if y < _BRANCH_POINT:
        raise DomainError(f"lambert_w0 needs y >= -1/e, got {y}")
    if y == _BRANCH_POINT:
        return -1.0
    if y == 0.0:
        return 0.0

    if math.e * y + 1.0 < 0.25:
        # series around the branch point in p = sqrt(2*(e*y + 1))
        p = math.sqrt(2.0 * (math.e * y + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0
    else:
        w = math.log1p(y)

    for _ in range(tol.max_iter):
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


def _estimates(f, spans):
    # rule estimates over each (lo, hi) of spans from one call of f, and
    # f at every node; f's trailing axis runs over the points, so with m
    # rows the estimates are an (m, len(spans)) array, and with one value
    # per point the row axis is absent
    lo, hi = np.array(spans).T
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _RULE_X
    y = np.asarray(f(nodes.ravel()), dtype=float)
    y = y.reshape(y.shape[:-1] + nodes.shape)
    return (y @ _RULE_W) * half, y


def _settle(f, a, b, whole, halves, tol_abs, depth):
    # accept the halves when they agree with the whole-span estimate in
    # every row, else bisect with the tolerance split between the halves
    left, right = halves
    if depth >= _MAX_DEPTH or np.max(np.abs(left + right - whole)) <= tol_abs:
        return left + right
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    q, _ = _estimates(f, [(a, lm), (lm, m), (m, rm), (rm, b)])
    lower = _settle(f, a, m, left, (q[..., 0], q[..., 1]), 0.5 * tol_abs, depth + 1)
    upper = _settle(f, m, b, right, (q[..., 2], q[..., 3]), 0.5 * tol_abs, depth + 1)
    return lower + upper


def tail_integral(f, a, tol=DEFAULT_TOL):
    """Integral over [a, inf) of one or several decaying integrands.

    f maps an ndarray of n points to n values, which gives a float
    result, or to an (m, n) array, one row per integrand, which gives m
    results from integrands sampled at the same nodes in one call.
    Panels [a, a+1], [a+1, a+3], [a+3, a+7], ... double in width; each
    is integrated by the 20-point Gauss-Lobatto rule and accepted when
    the whole-panel estimate agrees with the sum over its two halves to
    max(abs_tol, rel_tol * panel size) in every row, else bisected.
    Accumulation stops once every row of a panel contributes less than
    abs_tol in magnitude and is below abs_tol in magnitude at the
    panel's right edge.  If max_iter panels do not reach that state the
    partial result is attached to a TruncationError.
    """
    total = 0.0
    left = float(a)
    h = 1.0
    for _ in range(tol.max_iter):
        right = left + h
        m = left + 0.5 * h
        est, y = _estimates(f, [(left, right), (left, m), (m, right)])
        whole = est[..., 0]
        tol_abs = max(tol.abs_tol, tol.rel_tol * float(np.max(np.abs(whole))))
        piece = _settle(f, left, right, whole, (est[..., 1], est[..., 2]), tol_abs, 1)
        total = total + piece
        edge = y[..., 0, -1]  # the whole span's last node is the right edge
        if np.max(np.abs(piece)) < tol.abs_tol and np.max(np.abs(edge)) < tol.abs_tol:
            return total if np.ndim(total) else float(total)
        left = right
        h *= 2.0
    raise TruncationError(
        f"tail integral still active after {tol.max_iter} panels", total
    )
