"""Numerical kernels.

Four routines cover every solver need in the package:

- brent_root:     bracketed root finding (bisection / secant / inverse
                  quadratic interpolation, Brent's switching logic)
- lambert_w0:     principal branch of w*exp(w) = y via Halley iteration
- tail_integral:  integral of a decaying function over [a, inf) on
                  successive doubling panels, adaptive Simpson per panel
- vector_tail_integral: the same panels for several integrands sampled
                  together on arrays, Gauss-Legendre per panel
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


_MAX_SIMPSON_DEPTH = 48


def _simpson(f0, f1, f2, width):
    return width * (f0 + 4.0 * f1 + f2) / 6.0


def _refine(f, a, b, fa, fm, fb, whole, tol_abs, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    delta = left + right - whole
    if depth >= _MAX_SIMPSON_DEPTH or abs(delta) <= 15.0 * tol_abs:
        # depth cap: accept; only discontinuities drive the recursion
        # this deep, and by then the offending interval is ~1e-14 wide
        return left + right + delta / 15.0
    return _refine(f, a, m, fa, flm, fm, left, 0.5 * tol_abs, depth + 1) + _refine(
        f, m, b, fm, frm, fb, right, 0.5 * tol_abs, depth + 1
    )


def _panel(f, a, b, tol):
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = _simpson(fa, fm, fb, b - a)
    tol_abs = max(tol.abs_tol, tol.rel_tol * abs(whole))
    # one split is mandatory so a panel is never judged from three points
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    return _refine(f, a, m, fa, flm, fm, left, 0.5 * tol_abs, 1) + _refine(
        f, m, b, fm, frm, fb, right, 0.5 * tol_abs, 1
    )


def tail_integral(f, a, tol=DEFAULT_TOL):
    """Integral of f over [a, inf) for nonnegative decaying f.

    Panels [a, a+1], [a+1, a+3], [a+3, a+7], ... double in width; each is
    integrated by adaptive Simpson.  Accumulation stops once a panel
    contributes less than abs_tol and f at its right edge is below
    abs_tol.  If max_iter panels do not reach that state the partial sum
    is attached to a TruncationError.
    """
    total = 0.0
    left = float(a)
    h = 1.0
    for _ in range(tol.max_iter):
        right = left + h
        piece = _panel(f, left, right, tol)
        total += piece
        if abs(piece) < tol.abs_tol and f(right) < tol.abs_tol:
            return total
        left = right
        h *= 2.0
    raise TruncationError(
        f"tail integral still active after {tol.max_iter} panels", total
    )


# 20-point Gauss-Legendre rule on [-1, 1], written out as its nonnegative
# nodes and their weights (the rule is symmetric) because building it
# with numpy.polynomial costs milliseconds at import
_GL_HALF = np.array([
    (0.07652652113349734, 0.15275338713072628),
    (0.22778585114164507, 0.14917298647260424),
    (0.37370608871541955, 0.1420961093183824),
    (0.5108670019508271, 0.1316886384491769),
    (0.636053680726515, 0.1181945319615186),
    (0.7463319064601508, 0.1019301198172407),
    (0.8391169718222188, 0.08327674157670471),
    (0.912234428251326, 0.06267204833410879),
    (0.9639719272779138, 0.040601429800386446),
    (0.993128599185095, 0.017614007139150893),
])
_GL_X = np.concatenate((-_GL_HALF[::-1, 0], _GL_HALF[:, 0]))
_GL_W = np.concatenate((_GL_HALF[::-1, 1], _GL_HALF[:, 1]))
_MAX_GL_DEPTH = 30


def _gl_estimates(f, spans, points=()):
    # Gauss-Legendre estimates over each (lo, hi) of spans, and f at the
    # extra points, from one call of f: returns an (m, len(spans)) array
    # of estimates and an (m, len(points)) array of values
    lo, hi = np.array(spans).T
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _GL_X
    y = f(np.concatenate((nodes.ravel(), points)))
    used = nodes.size
    sums = y[:, :used].reshape(y.shape[0], len(spans), _GL_X.size) @ _GL_W
    return sums * half, y[:, used:]


def _gl_settle(f, a, b, whole, halves, tol_abs, depth):
    # accept the halves when they agree with the whole-span estimate in
    # every row, else bisect with the tolerance split between the halves
    left, right = halves
    if depth >= _MAX_GL_DEPTH or np.max(np.abs(left + right - whole)) <= tol_abs:
        return left + right
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    q, _ = _gl_estimates(f, [(a, lm), (lm, m), (m, rm), (rm, b)])
    lower = _gl_settle(f, a, m, left, (q[:, 0], q[:, 1]), 0.5 * tol_abs, depth + 1)
    upper = _gl_settle(f, m, b, right, (q[:, 2], q[:, 3]), 0.5 * tol_abs, depth + 1)
    return lower + upper


def vector_tail_integral(f, a, tol=DEFAULT_TOL):
    """Integrals over [a, inf) of m decaying integrands at once.

    f maps an array of n points to an (m, n) array, one row per
    integrand, so every integrand is sampled at the same nodes in one
    call.  Panels double in width as in tail_integral; each is
    integrated by 20-point Gauss-Legendre and accepted when the
    whole-panel estimate agrees with the sum over its two halves to
    max(abs_tol, rel_tol * panel size) in every row, else bisected.
    Accumulation stops once every row of a panel contributes less than
    abs_tol in magnitude and is below abs_tol in magnitude at the
    panel's right edge.  If
    max_iter panels do not reach that state the partial sums are
    attached to a TruncationError.
    """
    total = 0.0
    left = float(a)
    h = 1.0
    for _ in range(tol.max_iter):
        right = left + h
        m = left + 0.5 * h
        est, edge = _gl_estimates(
            f, [(left, right), (left, m), (m, right)], np.array([right])
        )
        whole = est[:, 0]
        tol_abs = max(tol.abs_tol, tol.rel_tol * float(np.max(np.abs(whole))))
        piece = _gl_settle(f, left, right, whole, (est[:, 1], est[:, 2]), tol_abs, 1)
        total = total + piece
        if np.max(np.abs(piece)) < tol.abs_tol and np.max(np.abs(edge)) < tol.abs_tol:
            return total
        left = right
        h *= 2.0
    raise TruncationError(
        f"tail integral still active after {tol.max_iter} panels", total
    )
