"""Capital requirements built on a deficit curve.

Three requirement rules share the curve D from the deficit module:

- coherent:      hold the full expected distorted shortfall of zero
                 reserve, D(0)
- convex:        hold the least u whose residual shortfall D(u) stays
                 within an absolute budget A
- proportional:  hold the u whose residual shortfall equals a fraction
                 delta of the reserve itself, D(u) = delta * u

plus two closed-form companions for exponential lines: the benchmark
rule built on the expected area under the loss path, and the premium
level below which no finite time-0 requirement controls the rolling
one-period exposure.

Each curve solves the convex and proportional rules itself: closed forms
from their distortion's primitive, quadrature curves by Newton steps on
their exact slope, empirical curves by exact interpolation (see deficit).
"""

import math
from dataclasses import dataclass

from .distortion import choquet_empirical, choquet_se
from .errors import DomainError, positive_finite, real, whole
from .model import ruin_constants
from .simulate import derive_seed, simulate_aggregate_claims


@dataclass(frozen=True)
class MeasureResult:
    """A requirement value plus how it was obtained.

    method is one of closed-form, lambert-w, root-bracketed, quadrature
    or empirical, where root-bracketed marks a root found numerically on
    the curve itself; residual reports the defining relation at the
    value; branch names the active closed-form branch where there is a
    choice.
    """

    value: float
    method: str
    residual: float
    branch: str = None


def coherent_measure(d):
    """Distorted expected shortfall with no reserve: D(0)."""
    return MeasureResult(value=d(0.0), method=d.method, residual=0.0)


def convex_measure(d, budget):
    """Least reserve whose residual shortfall stays within budget,
    solved by the curve itself (DeficitFunctional.convex_root)."""
    budget = real(budget, positive_finite, "budget must be positive and finite")
    return MeasureResult(*d.convex_root(budget))


def proportional_measure(d, margin):
    """Reserve with residual shortfall equal to margin times itself,
    solved by the curve itself (DeficitFunctional.proportional_root);
    it is unique because D decreases while the margin line rises."""
    margin = real(margin, positive_finite, "margin must be positive and finite")
    return MeasureResult(*d.proportional_root(margin))


def critical_threshold(d):
    """Largest usable proportional margin: residual shortfall at the
    coherent reserve divided by that reserve.

    Above this value the proportional rule would demand less capital
    than the coherent one; below it, strictly more.
    """
    u_c = d(0.0)
    if u_c <= 0.0:
        raise DomainError("degenerate curve: coherent reserve is zero")
    return d(u_c) / u_c


def ear_convex_measure(line, budget):
    """Budget-constrained reserve for the expected area under the loss
    path, the undistorted running-cost benchmark for one line."""
    budget = real(budget, positive_finite, "budget must be positive and finite")
    k = ruin_constants(line)
    if k.a <= 0.0:
        raise DomainError("degenerate line: no claims, nothing to reserve")
    r = k.b
    scale = k.a / (line.c * line.mu * r**3)
    value = (math.log(scale) - math.log(budget)) / r
    return MeasureResult(value, "closed-form", 0.0)


@dataclass(frozen=True)
class PremiumBound:
    """Estimated distorted one-period claim total with its uncertainty.

    concave echoes the distortion used; a False value flags that the
    premium interpretation (bound attained at the unit horizon) is not
    backed for the supplied distortion.
    """

    value: float
    std_error: float
    concave: bool


def premium_lower_bound(line, g_p, n, seed):
    """Least premium rate sustaining the rolling one-period requirement:
    the distorted expectation of the claims arriving in one unit of
    time, estimated from n simulated periods.

    The standard error comes from a 20-resample bootstrap of the
    empirical Choquet sum.
    """
    n = whole(n, lambda x: x >= 1000, "need at least 1000 simulated periods")
    samples = simulate_aggregate_claims(line, 1.0, n, seed)
    value = choquet_empirical(g_p, samples)
    se = choquet_se(g_p, samples, n_boot=20, seed=derive_seed(seed, 20))
    return PremiumBound(value=value, std_error=se, concave=g_p.concave)
