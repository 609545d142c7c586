"""Deficit curves: distorted expected overshoot of the running maximum.

For a loss process with running maximum M and a distortion g, the curve

    D(u) = integral over v in [u, inf) of g(P(M > v))

is the distorted expected shortfall of reserve u.  It is nonincreasing
and convex in u, with slope D'(u) = -g(P(M > u)), and because
P(M > v) = 1 for v < 0 it continues below zero with slope -1:
D(u) = D(0) - u.  Three interchangeable sources are provided: one closed
form for every distortion of an exponential line's ruin curve,
numerical quadrature against an arbitrary tail curve, and an empirical
estimate from sampled maxima.

The closed form rests on the distortion's primitive G: on a ruin curve
psi(v) = a*exp(-b*v), D(u) = G(psi(u)) / b for u >= 0.  G's power piece
gives D(u) = level * exp(-p*b*u) right of the kink max(v_edge, 0), where
v_edge is the reserve at which psi meets G's edge; left of the kink,
on G's log piece or below zero, D falls with slope -1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distortion import Distortion, choquet_weights
from .errors import DomainError
from .numerics import DEFAULT_TOL, lambert_w0, tail_integral
from .model import ruin_constants
from .simulate import simulate_max_loss

# closed forms are tagged by whether G has a log piece (tvar, varstep)
SOURCE_PH = "closed-ph"
SOURCE_TVAR = "closed-tvar"
SOURCE_QUAD = "quadrature"
SOURCE_EMP = "empirical"
_CLOSED = (SOURCE_PH, SOURCE_TVAR)


@dataclass(frozen=True)
class BranchContinuity:
    """Both closed-form branches of a curve with a plateau at its kink."""

    v_alpha: float
    left: float
    right: float
    two_branch: bool


class DeficitFunctional:
    """Callable deficit curve D(u) with a tagged construction source."""

    def __init__(self, kind, horizon, **state):
        if kind in _CLOSED and not math.isinf(horizon):
            raise DomainError(
                "closed-form curves exist only for the unlimited horizon"
            )
        if not horizon > 0.0:
            raise DomainError(f"horizon must be positive, got {horizon}")
        self.kind = kind
        self.horizon = horizon
        self.closed = kind in _CLOSED
        self.method = "closed-form" if self.closed else kind
        self._state = state

    # -- constructors ------------------------------------------------------

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
        k = ruin_constants(line)
        s, p, edge = g.primitive_pieces
        ratio = k.a / edge
        # reserve where psi falls to the edge of G, -inf without a log piece
        v_edge = math.log(ratio) / k.b if ratio > 0.0 else -math.inf
        return cls(
            SOURCE_PH if math.isinf(edge) else SOURCE_TVAR,
            horizon,
            a=k.a, b=k.b, s=s, p=p, pb=p * k.b, level=k.a**p / (p * s * k.b),
            edge=edge, v_edge=v_edge, kink=max(v_edge, 0.0),
            g_edge=g.primitive(edge) if edge < math.inf else None,
        )

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
        return cls(SOURCE_QUAD, horizon, g=g, psi=psi, tol=tol)

    @classmethod
    def empirical(cls, g, samples, horizon=math.inf):
        """Curve estimated from sampled maxima via the empirical Choquet
        sum; the descending sort and rank weights are cached once."""
        x = np.asarray(samples, dtype=float)
        if x.ndim != 1 or x.size == 0:
            raise DomainError("samples must be a nonempty 1-d collection")
        if np.any(x < 0.0) or not np.all(np.isfinite(x)):
            raise DomainError("samples must be finite and nonnegative")
        ordered = np.sort(x)[::-1]
        weights = choquet_weights(g, x.size)
        return cls(SOURCE_EMP, horizon, g=g, ordered=ordered, weights=weights)

    # -- evaluation --------------------------------------------------------

    def __call__(self, u):
        u = float(u)
        s = self._state
        if self.closed:
            kink = s["kink"]
            return s["level"] * math.exp(-s["pb"] * max(u, kink)) + max(kink - u, 0.0)
        if self.kind == SOURCE_QUAD:
            if u < 0.0:
                return self(0.0) - u
            g, psi = s["g"], s["psi"]
            return tail_integral(lambda v: g(psi(v)), u, s["tol"])
        shortfall = np.maximum(s["ordered"] - u, 0.0)
        return float(s["weights"] @ shortfall)

    def slope(self, u):
        """Right derivative D'(u) = -g(S(u)), with S(u) the curve's tail.

        S is 1 below zero, psi for quadrature and the share of samples
        above u for empirical curves, whose piecewise-linear D it
        differentiates from the right.  D is convex, so
        D(v) >= D(u) + (v - u) * D'(u) for v >= u.  Closed forms are
        inverted analytically and raise DomainError.
        """
        if self.closed:
            raise DomainError("slope is given for quadrature and empirical curves")
        u = float(u)
        if u < 0.0:
            return -1.0
        s = self._state
        if self.kind == SOURCE_QUAD:
            return -float(s["g"](s["psi"](np.array([u])))[0])
        above = int(np.count_nonzero(s["ordered"] > u))
        return -s["g"](above / s["ordered"].size)

    # -- closed forms --------------------------------------------------------

    def _closed_field(self, name, kind=None):
        if not self.closed or kind not in (None, self.kind):
            raise DomainError(f"{name} applies to {kind or 'closed-form'} curves")
        return self._state

    def convex_root(self, budget):
        """(value, method, residual, branch) of the least reserve with
        D(u) <= budget, closed forms only.

        Past the level at the kink a curve with a plateau follows its
        slope -1 line (branch "linear"); a curve without one continues
        its power piece to negative reserves (branch "continuation").
        """
        s = self._closed_field("convex_root")
        kink = s["kink"]
        at_kink = self(kink)
        if budget > at_kink and s["g_edge"] is not None:
            value = kink + at_kink - budget
            return value, "closed-form", abs(self(value) - budget), "linear"
        if s["level"] <= 0.0:
            raise DomainError("degenerate line: no claims, nothing to reserve")
        level, pb = s["level"], s["pb"]
        # ln(level); with s = 1 it is taken as p ln a - ln(pb), as the ph
        # closed form always has, which keeps reported residuals bit-stable
        if s["s"] == 1.0:
            log_level = s["p"] * math.log(s["a"]) - math.log(pb)
        else:
            log_level = math.log(level)
        value = (log_level - math.log(budget)) / pb
        residual = abs(level * math.exp(-pb * value) - budget)
        branch = "exponential" if budget <= at_kink else "continuation"
        return value, "closed-form", residual, branch

    def proportional_root(self, margin):
        """(value, method, residual, branch) of the reserve with
        D(u) = margin * u, closed forms only: a Lambert W step on the
        power piece or a linear solve on the plateau."""
        s = self._closed_field("proportional_root")
        if self(0.0) <= 0.0:
            return 0.0, "closed-form", 0.0, "degenerate"
        v_edge, b = s["v_edge"], s["b"]
        if v_edge > 0.0 and margin >= s["g_edge"] / (b * v_edge):
            value = (v_edge + s["g_edge"] / b) / (1.0 + margin)
            method, branch = "closed-form", "linear"
        else:
            value = lambert_w0(s["a"] ** s["p"] / (s["s"] * margin)) / s["pb"]
            method, branch = "lambert-w", None if s["g_edge"] is None else "tail"
        return value, method, abs(self(value) - margin * value), branch

    @property
    def constants(self):
        """(a, b) of the underlying ruin curve; closed forms only."""
        s = self._closed_field("constants")
        return s["a"], s["b"]

    @property
    def ph_exponent(self):
        return self._closed_field("ph_exponent", SOURCE_PH)["p"]

    @property
    def tvar_level(self):
        return self._closed_field("tvar_level", SOURCE_TVAR)["edge"]

    @property
    def plateau_edge(self):
        """Reserve where the distorted tail leaves its plateau at 1."""
        return self._closed_field("plateau_edge", SOURCE_TVAR)["v_edge"]

    def continuity_match(self):
        """Evaluate both branches of a curve with a plateau at its kink.

        With the plateau edge v_alpha positive the linear and power
        branches must both equal G(edge)/b there; two_branch is False
        when the plateau already ends at or below zero reserve and only
        the power branch is live on u >= 0.
        """
        s = self._closed_field("continuity_match", SOURCE_TVAR)
        v_edge = s["v_edge"]
        if v_edge <= 0.0:
            d0 = self(0.0)
            return BranchContinuity(v_edge, d0, d0, two_branch=False)
        # self(v_edge) is the power branch: the slope -1 part ends there
        return BranchContinuity(v_edge, s["g_edge"] / s["b"], self(v_edge), True)
