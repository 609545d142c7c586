"""Deficit curves: distorted expected overshoot of the running maximum.

For a loss process with running maximum M and a distortion g, the curve

    D(u) = integral over v in [u, inf) of g(P(M > v))

is the distorted expected shortfall of reserve u.  It is nonincreasing
and convex in u, with slope D'(u) = -g(P(M > u)), and because
P(M > v) = 1 for v < 0 it continues below zero with slope -1:
D(u) = D(0) - u.  Three interchangeable sources are provided, one class
each, and each solves the convex and proportional rules itself:
ClosedCurve for every distortion of an exponential line's ruin curve,
QuadratureCurve against an arbitrary tail curve, and EmpiricalCurve
from sampled maxima.

The closed form rests on the distortion's primitive G: on a ruin curve
psi(v) = a*exp(-b*v), D(u) = G(psi(u)) / b for u >= 0.  G's power piece
gives D(u) = level * exp(-p*b*(u - kink)) right of the kink
max(v_edge, 0), where v_edge is the reserve at which psi meets G's edge
and level = D(kink); left of the kink, on G's log piece or below zero,
D falls with slope -1.

QuadratureCurve integrates g(psi) only where it is smooth.  tvar and
varstep take g(psi) = 1 up to the edge reserve v_e where psi meets their
edge alpha, and leave it there with a kink or a jump, which adaptive
quadrature could only bisect, level by level, on every call.  So v_e is
located once, to adjacent floats, when the curve is built; D(u) is
D(v_e) + (v_e - u) up to it, from one kept integral, and one integral
from u beyond it, the same max(u, kink) shape as the closed form.

QuadratureCurve solves its rules from its kink k = v_e, left of which
D has slope -1: a budget or margin met at or left of k is met there
and solved exactly, as the closed form does.  Otherwise the exponential
D(k)*exp(-beta*(u - k)) with the curve's own value and slope at k, the
Cramer-Lundberg shape of every ruin curve past its kink, gives the
start of Newton steps on the exact slope: its root in closed form, by
a logarithm or a Lambert W step.  On an exponential line that start is
the root to rounding, so a rule costs two evaluations of D.  Each
tangent lies below the convex D, so a start past the root steps back
below it, and from there the iterates rise to the root without passing
it.  EmpiricalCurve is linear between its samples, so its rules are
one inverse interpolation each, exact to rounding.
"""

import functools
import math

import numpy as np

from .distortion import Distortion, edge_reserve
from .errors import ConvergenceError, DomainError
from .numerics import DEFAULT_TOL, lambert_w0, lambert_w0_log, tail_integral
from .model import ruin_constants
from .simulate import simulate_max_loss


# the proportional rules take W(y) with ln y below this; beyond it,
# where y may overflow, the closed form takes W from ln y and the
# quadrature solve starts from the kink
_LOG_W_MAX = 700.0


def _newton_root(f, slope, start, restart, tol):
    """Root of a convex decreasing f by Newton steps from start, or from
    restart, a pair (u, f(u)) left of the root, where start is not
    finite; returns the root and f there.

    Stops once a step is no larger than rel_tol*|u| + abs_tol, or once
    |f| <= abs_tol and so is the step f/f' that the last slope implies:
    on a flat tail a small f alone leaves u far from the root.  At the
    start, with no slope yet, |f| <= abs_tol stops.  Where the slope is
    not negative, the solve goes back once to restart; a second such
    slope raises ConvergenceError, as do max_iter steps.
    """
    u, fu = (start, f(start)) if start < math.inf else restart
    rate = None
    for _ in range(tol.max_iter):
        if abs(fu) <= tol.abs_tol and (
            rate is None or abs(fu / rate) <= tol.rel_tol * abs(u) + tol.abs_tol
        ):
            return u, fu
        rate = slope(u)
        if not rate < 0.0:
            if restart is None:
                raise ConvergenceError(f"curve is flat at u={u} with f={fu}")
            (u, fu), restart, rate = restart, None, None
            continue
        step = -fu / rate
        u += step
        fu = f(u)
        if abs(step) <= tol.rel_tol * abs(u) + tol.abs_tol:
            return u, fu
    raise ConvergenceError(f"root not settled in {tol.max_iter} Newton steps")


class DeficitFunctional:
    """Callable deficit curve D(u) with a tagged construction source.

    The constructors build the source classes below.  Their
    convex_root(budget, tol) and proportional_root(margin, tol) give
    (value, method, residual, branch) of the least u with D(u) <= budget
    and of the u with D(u) = margin * u.  D(nan) raises DomainError on
    every source.
    """

    def __init__(self, kind, horizon):
        if not horizon > 0.0:
            raise DomainError(f"horizon must be positive, got {horizon}")
        self.kind = self.method = kind
        self.horizon = horizon

    @classmethod
    def for_line(cls, line, g, horizon=None, n=10000, seed=0):
        """The curve of an exponential line under g: the closed form for
        the unlimited horizon (None), else the empirical curve of n
        maxima over the finite horizon simulated from seed."""
        if horizon is None:
            return cls.closed_form(line, g)
        batch = simulate_max_loss(line, horizon, n, seed)
        return cls.empirical(g, batch.samples, horizon=horizon)

    @classmethod
    def closed_form(cls, line, g, horizon=math.inf):
        """D(u) = G(psi(u)) / b of an exponential line's ruin curve
        psi(v) = a*exp(-b*v), from the primitive G of any distortion g."""
        return ClosedCurve(line, g, horizon)

    @classmethod
    def closed_form_ph(cls, line, p=1.0, horizon=math.inf):
        """Proportional-hazard distortion of an exponential line's ruin
        curve; p = 1 gives the undistorted expected overshoot."""
        return cls.closed_form(line, Distortion("ph", p), horizon)

    @classmethod
    def closed_form_tvar(cls, line, alpha, horizon=math.inf):
        """Tail-value-at-risk distortion min(x/alpha, 1) of an exponential
        line's ruin curve."""
        return cls.closed_form(line, Distortion("tvar", alpha), horizon)

    @classmethod
    def quadrature(cls, g, psi, horizon=math.inf, tol=DEFAULT_TOL):
        """Numerical curve for any distortion g and tail function psi;
        psi maps an ndarray of v to P(M > v), including 1 for v < 0."""
        return QuadratureCurve(g, psi, horizon, tol)

    @classmethod
    def empirical(cls, g, samples, horizon=math.inf):
        """Curve estimated from sampled maxima via the empirical Choquet
        sum, kept as its values at the sorted samples."""
        return EmpiricalCurve(g, samples, horizon)

    def __call__(self, u):
        # one entry point, so wrapping it traces every source; each gives _value
        u = float(u)
        if math.isnan(u):
            raise DomainError("reserve must not be NaN")
        return self._value(u)


class ClosedCurve(DeficitFunctional):
    """D(u) = level * exp(-p*b*(max(u, kink) - kink)) + max(kink - u, 0)
    with level = D(kink), tagged closed-tvar when G has a log piece (tvar,
    varstep), else closed-ph.  Its roots are exact and take no tolerance."""

    def __init__(self, line, g, horizon):
        k = ruin_constants(line)
        s, p, edge = g.primitive_pieces
        if not math.isinf(horizon):
            raise DomainError("closed-form curves exist only for the unlimited horizon")
        super().__init__("closed-ph" if math.isinf(edge) else "closed-tvar", horizon)
        self.method = "closed-form"
        self._a, self._b, self._s, self._p = k.a, k.b, s, p
        self._pb = p * k.b
        # reserve where psi falls to the edge of G, -inf without a log piece;
        # in logarithms, as a / edge overflows for an edge near the least float
        log_a = math.log(k.a) if k.a > 0.0 else -math.inf
        self._v_edge = (log_a - math.log(edge)) / k.b
        self._kink = max(self._v_edge, 0.0)
        # D(kink) = G(psi(kink)) / b, finite for every edge, where
        # a**p / (p*s*b) at u = 0 is not
        self._level = min(k.a, edge) ** p / s / self._pb
        self._g_edge = g.primitive(edge) if edge < math.inf else None

    def _value(self, u):
        kink = self._kink
        power = self._level * math.exp(-self._pb * (max(u, kink) - kink))
        return power + max(kink - u, 0.0)

    def slope(self, u):
        raise DomainError("closed forms are inverted analytically and give no slope")

    def convex_root(self, budget, tol=DEFAULT_TOL):
        """Past the level at the kink a curve with a plateau follows its
        slope -1 line (branch "linear"); a curve without one continues
        its power piece to negative reserves (branch "continuation")."""
        kink = self._kink
        at_kink = self(kink)
        if budget > at_kink and self._g_edge is not None:
            value = kink + at_kink - budget
            return value, "closed-form", abs(self(value) - budget), "linear"
        level, pb = self._level, self._pb
        if level <= 0.0:
            raise DomainError("degenerate line: no claims, nothing to reserve")
        # ln(level); with s = 1 it is taken as p ln a - ln(pb), as the ph
        # closed form always has, which keeps reported residuals bit-stable
        if self._s == 1.0:
            log_level = self._p * math.log(self._a) - math.log(pb)
        else:
            log_level = math.log(level)
        value = kink + (log_level - math.log(budget)) / pb
        residual = abs(level * math.exp(-pb * (value - kink)) - budget)
        branch = "exponential" if budget <= at_kink else "continuation"
        return value, "closed-form", residual, branch

    def proportional_root(self, margin, tol=DEFAULT_TOL):
        """Lambert W step on the power piece, or linear solve on the plateau."""
        if self(0.0) <= 0.0:
            return 0.0, "closed-form", 0.0, "degenerate"
        v_edge, b, g_edge = self._v_edge, self._b, self._g_edge
        if v_edge > 0.0 and margin >= g_edge / (b * v_edge):
            value = (v_edge + g_edge / b) / (1.0 + margin)
            method, branch = "closed-form", "linear"
        else:
            # W(y) of y = a**p / s / margin, divided in turn, as s * margin
            # may underflow to 0
            a, p, s = self._a, self._p, self._s
            log_y = p * math.log(a) - math.log(s) - math.log(margin)
            if log_y < _LOG_W_MAX:
                w = lambert_w0(a**p / s / margin)
            else:
                w = lambert_w0_log(log_y)
            value = w / self._pb
            method, branch = "lambert-w", None if g_edge is None else "tail"
        return value, method, abs(self(value) - margin * value), branch


class QuadratureCurve(DeficitFunctional):
    """D(u) = D(v_e) + (v_e - u) for u <= v_e = edge_reserve(g, psi),
    below zero included, with D(v_e) integrated on first use and kept;
    beyond v_e, tail_integral of the smooth g(psi(v)) from u.  v_e is
    found when the curve is built, 0 for identity and ph; its rules take
    Newton steps."""

    def __init__(self, g, psi, horizon, tol):
        super().__init__("quadrature", horizon)
        self._g, self._psi, self._tol = g, psi, tol
        self._kink = edge_reserve(g, psi, tol)

    def _integral(self, u):
        return tail_integral(lambda v: self._g(self._psi(v)), u, self._tol)

    @functools.cached_property
    def _at_kink(self):
        return self._integral(self._kink)

    def _value(self, u):
        kink = self._kink
        if u <= kink:
            return self._at_kink + (kink - u)
        return self._integral(u)

    def slope(self, u):
        """Right derivative D'(u) = -g(psi(u)), -1 below zero; D is convex,
        so D(v) >= D(u) + (v - u) * D'(u) for v >= u."""
        u = float(u)
        if u < 0.0:
            return -1.0
        return -float(self._g(self._psi(np.array([u])))[0])

    def convex_root(self, budget, tol=DEFAULT_TOL):
        """A budget of at least D(k) at the kink k meets the slope -1 part
        at k + D(k) - budget; a smaller one takes Newton steps on
        D(u) - budget from k + ln(D(k)/budget)/beta, where the curve's
        exponential fit D(k)*exp(-beta*(u - k)) meets it."""
        kink = self._kink
        d_k = self(kink)
        if d_k <= budget:
            value = kink + d_k - budget
            return value, "root-bracketed", abs(d_k + (kink - value) - budget), None
        rate = -self.slope(kink) / d_k
        start = kink + (math.log(d_k) - math.log(budget)) / rate
        root, f_root = _newton_root(
            lambda u: self(u) - budget, self.slope, start, (kink, d_k - budget), tol
        )
        return root, "root-bracketed", abs(f_root), None

    def proportional_root(self, margin, tol=DEFAULT_TOL):
        """A margin met at or left of the kink k, D(k) <= margin * k, is
        met on the slope -1 part at (k + D(k))/(1 + margin); otherwise
        Newton steps on D(u) - margin * u, of slope D'(u) - margin, start
        where the exponential fit meets the margin line, at W(y)/beta
        with y = beta * D(k) * exp(beta * k) / margin."""
        kink = self._kink
        d_k = self(kink)
        if kink + d_k <= 0.0:
            return 0.0, "root-bracketed", abs(d_k), "degenerate"
        if d_k <= margin * kink:
            value = (kink + d_k) / (1.0 + margin)
            residual = abs(d_k + (kink - value) - margin * value)
            return value, "root-bracketed", residual, None
        weight = -self.slope(kink)
        rate = weight / d_k
        log_y = math.log(weight) - math.log(margin) + rate * kink
        start = lambert_w0(math.exp(log_y)) / rate if log_y < _LOG_W_MAX else math.inf
        root, f_root = _newton_root(
            lambda u: self(u) - margin * u,
            lambda u: self.slope(u) - margin,
            start,
            (kink, d_k - margin * kink),
            tol,
        )
        return root, "root-bracketed", abs(f_root), None


class EmpiricalCurve(DeficitFunctional):
    """D(u) as the empirical Choquet sum of the shortfalls of sampled
    maxima x_0 >= ... >= x_(n-1), linear with slope -c_j = -g((j + 1)/n)
    on (x_(j+1), x_j) and -1 below x_(n-1); so it is kept as its knots
    D(x_0) = 0, D(x_(j+1)) = D(x_j) + c_j * (x_j - x_(j+1)).  Both rules
    invert the interpolation exactly and, as the closed form, take no
    tolerance (method "root-bracketed")."""

    def __init__(self, g, samples, horizon):
        x = np.asarray(samples, dtype=float)
        if x.ndim != 1 or x.size == 0:
            raise DomainError("samples must be a nonempty 1-d collection")
        if np.any(x < 0.0) or not np.all(np.isfinite(x)):
            raise DomainError("samples must be finite and nonnegative")
        super().__init__("empirical", horizon)
        # ascending, as np.interp takes them, with D summed from the top
        x = np.sort(x)
        drops = g(np.arange(x.size - 1, 0, -1) / x.size) * np.diff(x)
        self._g, self._x = g, x
        self._d = np.append(np.cumsum(drops[::-1])[::-1], 0.0)
        self._low, self._d_low = float(x[0]), float(self._d[0])

    def _value(self, u):
        return float(np.interp(u, self._x, self._d)) + max(self._low - u, 0.0)

    def slope(self, u):
        """Right derivative D'(u) = -g(share of the samples above u)."""
        above = self._x.size - int(np.searchsorted(self._x, float(u), side="right"))
        return -self._g(above / self._x.size)

    def convex_root(self, budget, tol=DEFAULT_TOL):
        """The least u with D(u) <= budget, between the knots that hold
        budget or on the slope -1 part below x_(n-1)."""
        value = float(np.interp(-budget, -self._d, self._x))
        value -= max(budget - self._d_low, 0.0)
        return value, "root-bracketed", abs(self(value) - budget), None

    def proportional_root(self, margin, tol=DEFAULT_TOL):
        """The u with D(u) = margin * u: on the slope -1 part below
        x_(n-1) if it is there, else between the knots where margin * x_j
        - D(x_j) turns from negative to not."""
        low, d_low = self._low, self._d_low
        value = (low + d_low) / (1.0 + margin)
        if value > low:
            value = float(np.interp(0.0, margin * self._x - self._d, self._x))
        branch = None if low + d_low > 0.0 else "degenerate"
        return value, "root-bracketed", abs(self(value) - margin * value), branch
