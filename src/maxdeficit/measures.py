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

Closed-form curves solve the convex and proportional rules themselves,
from the primitive of their distortion.  On quadrature and empirical
curves the rules are solved on the curve itself by Newton steps from
zero reserve, using the exact slope D'(u) = -g(P(M > u)).  D is convex, so each tangent lies below it and
the iterates rise to the root without passing it.
"""

import math
from dataclasses import dataclass

from .distortion import choquet_empirical, choquet_se
from .errors import ConvergenceError, DomainError
from .model import ruin_constants
from .numerics import DEFAULT_TOL
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


def _newton_root(f, slope, f0, tol):
    """Root of a convex decreasing f with f(0) = f0 > 0, by Newton steps
    from u = 0; returns the root and f there.

    Stops as Brent does: once |f| <= abs_tol or a step is no larger than
    rel_tol*|u| + abs_tol.  A slope that is not negative cannot reach
    the root and raises ConvergenceError, as do max_iter steps.
    """
    u, fu = 0.0, f0
    for _ in range(tol.max_iter):
        if abs(fu) <= tol.abs_tol:
            return u, fu
        rate = slope(u)
        if not rate < 0.0:
            raise ConvergenceError(f"curve is flat at u={u} with f={fu}")
        step = -fu / rate
        u += step
        fu = f(u)
        if abs(step) <= tol.rel_tol * abs(u) + tol.abs_tol:
            return u, fu
    raise ConvergenceError(f"root not settled in {tol.max_iter} Newton steps")


def convex_measure(d, budget, tol=DEFAULT_TOL):
    """Least reserve whose residual shortfall stays within budget.

    Closed forms are solved by DeficitFunctional.convex_root (method
    "closed-form").  Other curves are solved on the curve itself (method
    "root-bracketed"): its sub-zero part is linear, so a budget of at
    least D(0) gives D(0) - A exactly, and a smaller one is reached by
    Newton steps on D(u) - A from zero.
    """
    if not 0.0 < budget < math.inf:
        raise DomainError(f"budget must be positive and finite, got {budget}")
    if d.closed:
        return MeasureResult(*d.convex_root(budget))
    d0 = d(0.0)
    if d0 <= budget:
        value = d0 - budget
        return MeasureResult(value, "root-bracketed", abs(d0 - value - budget))
    root, f = _newton_root(lambda u: d(u) - budget, d.slope, d0 - budget, tol)
    return MeasureResult(root, "root-bracketed", abs(f))


def proportional_measure(d, margin, tol=DEFAULT_TOL):
    """Reserve with residual shortfall equal to margin times itself.

    The crossing is unique because D decreases while the comparison
    line rises.  Closed forms are solved by
    DeficitFunctional.proportional_root, through the Lambert W function
    on their power piece; other sources take Newton steps on
    D(u) - margin * u from zero (method "root-bracketed"), whose slope
    is D'(u) - margin.
    """
    if not 0.0 < margin < math.inf:
        raise DomainError(f"margin must be positive and finite, got {margin}")
    if d.closed:
        return MeasureResult(*d.proportional_root(margin))
    d0 = d(0.0)
    if d0 <= 0.0:
        return MeasureResult(0.0, "root-bracketed", abs(d0), "degenerate")
    root, f = _newton_root(
        lambda u: d(u) - margin * u, lambda u: d.slope(u) - margin, d0, tol
    )
    return MeasureResult(root, "root-bracketed", abs(f))


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
    if not 0.0 < budget < math.inf:
        raise DomainError(f"budget must be positive and finite, got {budget}")
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
    if n < 1000:
        raise DomainError(f"need at least 1000 simulated periods, got {n}")
    samples = simulate_aggregate_claims(line, 1.0, n, seed)
    value = choquet_empirical(g_p, samples)
    se = choquet_se(g_p, samples, n_boot=20, seed=derive_seed(seed, 20))
    return PremiumBound(value=value, std_error=se, concave=g_p.concave)
