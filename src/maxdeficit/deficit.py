"""Deficit curves: distorted expected overshoot of the running maximum.

For a loss process with running maximum M and a distortion g, the curve

    D(u) = integral over v in [u, inf) of g(P(M > v))

is the distorted expected shortfall of reserve u.  It is nonincreasing
and convex in u, with slope D'(u) = -g(P(M > u)), and because
P(M > v) = 1 for v < 0 it continues below zero with slope -1:
D(u) = D(0) - u.  Four interchangeable sources are provided:
two closed forms for exponential-severity lines, numerical quadrature
against an arbitrary tail curve, and an empirical estimate from sampled
maxima.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distortion import choquet_weights
from .errors import DomainError
from .numerics import DEFAULT_TOL, tail_integral
from .model import ruin_constants

SOURCE_PH = "closed-ph"
SOURCE_TVAR = "closed-tvar"
SOURCE_QUAD = "quadrature"
SOURCE_EMP = "empirical"


@dataclass(frozen=True)
class BranchContinuity:
    """Both closed-form branches of a tvar curve at the kink."""

    v_alpha: float
    left: float
    right: float
    two_branch: bool


class DeficitFunctional:
    """Callable deficit curve D(u) with a tagged construction source."""

    def __init__(self, kind, horizon, **state):
        if kind in (SOURCE_PH, SOURCE_TVAR) and not math.isinf(horizon):
            raise DomainError(
                "closed-form curves exist only for the unlimited horizon"
            )
        if not horizon > 0.0:
            raise DomainError(f"horizon must be positive, got {horizon}")
        self.kind = kind
        self.horizon = horizon
        self._state = state

    # -- constructors ------------------------------------------------------

    @classmethod
    def closed_form_ph(cls, line, p=1.0, horizon=math.inf):
        """Proportional-hazard distortion of an exponential line's ruin
        curve; p = 1 gives the undistorted expected overshoot."""
        if not 0.0 < p <= 1.0:
            raise DomainError(f"ph exponent must be in (0, 1], got {p}")
        k = ruin_constants(line)
        return cls(SOURCE_PH, horizon, a=k.a, b=k.b, p=p)

    @classmethod
    def closed_form_tvar(cls, line, alpha, horizon=math.inf):
        """Tail-value-at-risk distortion min(x/alpha, 1) of an exponential
        line's ruin curve."""
        if not 0.0 < alpha < 1.0:
            raise DomainError(f"tvar level must be in (0, 1), got {alpha}")
        k = ruin_constants(line)
        if k.a <= 0.0:
            raise DomainError("tvar closed form needs a line with claims")
        # reserve level where the distorted tail leaves its plateau at 1
        v_alpha = math.log(k.a / alpha) / k.b
        return cls(SOURCE_TVAR, horizon, a=k.a, b=k.b, alpha=alpha, v_alpha=v_alpha)

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
        if self.kind == SOURCE_PH:
            if u < 0.0:
                return self(0.0) - u
            a, b, p = s["a"], s["b"], s["p"]
            return a**p / (p * b) * math.exp(-p * b * u)
        if self.kind == SOURCE_TVAR:
            a, b, alpha, v_alpha = s["a"], s["b"], s["alpha"], s["v_alpha"]
            kink = max(v_alpha, 0.0)
            if u >= kink:
                return a / (alpha * b) * math.exp(-b * u)
            if u >= 0.0 or v_alpha > 0.0:
                # distorted tail sits at 1 left of the kink
                return (kink - u) + a / (alpha * b) * math.exp(-b * kink)
            return self(0.0) - u
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
        if self.kind not in (SOURCE_QUAD, SOURCE_EMP):
            raise DomainError("slope is given for quadrature and empirical curves")
        u = float(u)
        if u < 0.0:
            return -1.0
        s = self._state
        if self.kind == SOURCE_QUAD:
            return -float(s["g"](s["psi"](np.array([u])))[0])
        above = int(np.count_nonzero(s["ordered"] > u))
        return -s["g"](above / s["ordered"].size)

    # -- closed-form introspection ----------------------------------------

    @property
    def constants(self):
        """(a, b) of the underlying ruin curve; closed forms only."""
        if self.kind not in (SOURCE_PH, SOURCE_TVAR):
            raise DomainError("only closed-form curves expose ruin constants")
        return self._state["a"], self._state["b"]

    @property
    def ph_exponent(self):
        if self.kind != SOURCE_PH:
            raise DomainError("ph_exponent applies to ph closed forms")
        return self._state["p"]

    @property
    def tvar_level(self):
        if self.kind != SOURCE_TVAR:
            raise DomainError("tvar_level applies to tvar closed forms")
        return self._state["alpha"]

    @property
    def plateau_edge(self):
        """Reserve where the distorted tail leaves 1 (tvar closed form)."""
        if self.kind != SOURCE_TVAR:
            raise DomainError("plateau_edge applies to tvar closed forms")
        return self._state["v_alpha"]

    def continuity_match(self):
        """Evaluate both tvar branches at the kink reserve.

        With the plateau boundary v_alpha positive the linear and
        exponential branches must both equal 1/b there; two_branch is
        False when the plateau already ends at or below zero reserve and
        only the exponential branch is live on u >= 0.
        """
        if self.kind != SOURCE_TVAR:
            raise DomainError("continuity_match applies to tvar closed forms")
        s = self._state
        a, b, alpha, v_alpha = s["a"], s["b"], s["alpha"], s["v_alpha"]
        if v_alpha <= 0.0:
            d0 = a / (alpha * b)
            return BranchContinuity(v_alpha, d0, d0, two_branch=False)
        left = 1.0 / b
        right = a / (alpha * b) * math.exp(-b * v_alpha)
        return BranchContinuity(v_alpha, left, right, two_branch=True)
