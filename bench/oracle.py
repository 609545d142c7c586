"""The benchmark's own reference formulas.

Every answer the benchmark receives from maxdeficit is checked against
the computations in this file, which use only the standard library and
numpy and never call into maxdeficit.  They are written from the model's
definitions (ruin curve a*exp(-b*u), deficit curve D_g(u) = integral of
g(psi(v)) over [u, inf)), not from the package's code paths.
"""

import math

import numpy as np


class CheckError(AssertionError):
    """An answer does not match the reference computation."""


def close(got, want, what, rel=1e-6):
    """Require |got - want| <= rel * max(1, |want|)."""
    if not abs(got - want) <= rel * max(1.0, abs(want)):
        raise CheckError(f"{what}: got {got!r}, want {want!r}")


def require(ok, what):
    if not ok:
        raise CheckError(what)


# -- one exponential line ---------------------------------------------------


def ruin_ab(lam, mu, c):
    """(a, b) of psi(u) = a*exp(-b*u): a = lam*mu/c, b = (c - lam*mu)/(c*mu)."""
    return lam * mu / c, (c - lam * mu) / (c * mu)


def psi(a, b, v):
    return 1.0 if v < 0.0 else a * math.exp(-b * v)


def g_value(spec, x):
    """Distortion g(x) for spec ('identity',), ('ph', p), ('tvar', alpha)
    or ('varstep', alpha)."""
    kind = spec[0]
    if kind == "identity":
        return x
    if kind == "ph":
        return x ** spec[1]
    if kind == "tvar":
        return min(x / spec[1], 1.0)
    return 1.0 if x > spec[1] else 0.0


def parse_g(text):
    if text == "identity":
        return ("identity",)
    kind, _, param = text.partition(":")
    return (kind, float(param))


def deficit(spec, a, b, u):
    """Closed form of D_g(u) on one exponential line; below zero reserve
    the curve continues with slope -1 because psi = 1 there."""
    kind = spec[0]
    if kind == "varstep":
        # g(psi(v)) = 1 exactly while psi(v) > alpha, i.e. for v < edge
        edge = math.log(a / spec[1]) / b
        return max(edge, 0.0) - u if u < 0.0 else max(0.0, edge - u)
    if kind == "tvar":
        alpha = spec[1]
        edge = math.log(a / alpha) / b  # psi(edge) = alpha
        if edge > 0.0 and u < edge:
            return (edge - u) + 1.0 / b
        if u < 0.0:
            return a / (alpha * b) - u
        return a / (alpha * b) * math.exp(-b * u)
    p = 1.0 if kind == "identity" else spec[1]
    if u < 0.0:
        return a**p / (p * b) - u
    return a**p / (p * b) * math.exp(-p * b * u)


def convex_reserve(spec, a, b, budget):
    """The u with D_g(u) = budget, by inverting the closed form branch
    that holds at that level."""
    d0 = deficit(spec, a, b, 0.0)
    if budget >= d0:
        return d0 - budget
    kind = spec[0]
    if kind == "varstep":
        return math.log(a / spec[1]) / b - budget
    if kind == "tvar":
        alpha = spec[1]
        edge = math.log(a / alpha) / b
        if edge > 0.0 and budget >= 1.0 / b:
            return edge + 1.0 / b - budget
        return math.log(a / (alpha * b * budget)) / b
    p = 1.0 if kind == "identity" else spec[1]
    return math.log(a**p / (p * b * budget)) / (p * b)


def bisect_decreasing(f, lo, hi):
    """Root of a function that is positive at lo and negative at hi."""
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def proportional_reserve(spec, a, b, margin):
    """The crossing D_g(u) = margin * u, bisected on the closed form."""
    f = lambda u: deficit(spec, a, b, u) - margin * u
    hi = 1.0
    while f(hi) > 0.0:
        hi *= 2.0
    return bisect_decreasing(f, 0.0, hi)


def critical_threshold(spec, a, b):
    d0 = deficit(spec, a, b, 0.0)
    return deficit(spec, a, b, d0) / d0


def ear_reserve(lam, mu, c, budget):
    """Expected-area requirement: the area curve a/(c*mu*b**3) * exp(-b*u)
    inverted at the budget."""
    a, b = ruin_ab(lam, mu, c)
    return math.log(a / (c * mu * b**3 * budget)) / b


def requirement(rule, spec, line, param=None):
    """Reference value of a requirement rule on the line (lam, mu, c)."""
    if rule == "ear":
        return ear_reserve(*line, param)
    a, b = ruin_ab(*line)
    if rule == "coherent":
        return deficit(spec, a, b, 0.0)
    if rule == "convex":
        return convex_reserve(spec, a, b, param)
    if rule == "proportional":
        return proportional_reserve(spec, a, b, param)
    return critical_threshold(spec, a, b)


# -- marginal-sum splits ----------------------------------------------------


def check_marginal_split(ab, gammas, total, reserves, what, threshold=None):
    """Budget identity, equal levels (a*exp(-b*u))**(1/gamma) on active
    lines, inactive tops no higher than that level."""
    u = np.asarray(reserves, dtype=float)
    require(np.all(u >= 0.0), f"{what}: negative reserve in {u}")
    close(float(u.sum()), total, f"{what}: budget")
    levels = [
        (a * math.exp(-b * x)) ** (1.0 / gam) for (a, b), gam, x in zip(ab, gammas, u)
    ]
    active = [k for k in range(len(u)) if u[k] > 0.0]
    require(active or total == 0.0, f"{what}: no active line")
    level = levels[active[0]] if active else max(levels)
    for k in range(len(u)):
        if k in active:
            close(levels[k], level, f"{what}: level of line {k}")
        else:
            top = ab[k][0] ** (1.0 / gammas[k])
            require(top <= level * (1.0 + 1e-6), f"{what}: inactive line {k} above level")
    if threshold is not None:
        close(threshold, level, f"{what}: threshold")
    return level


def marginal_objective(ab, gammas, reserves):
    return sum(
        gam / b * (a * math.exp(-b * x)) ** (1.0 / gam)
        for (a, b), gam, x in zip(ab, gammas, reserves)
    )


# -- aggregate minimum ------------------------------------------------------


def pooled_identity(ab, reserves):
    """Identity-distorted pooled deficit: integral of 1 - prod(1 - psi_k)
    over v >= 0, by inclusion-exclusion over subsets of lines."""
    k = len(ab)
    total = 0.0
    for mask in range(1, 1 << k):
        members = [i for i in range(k) if mask >> i & 1]
        term = 1.0
        rate = 0.0
        for i in members:
            a, b = ab[i]
            term *= a * math.exp(-b * reserves[i])
            rate += b
        sign = 1.0 if len(members) % 2 else -1.0
        total += sign * term / rate
    return total


_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)


def _pooled_tail(ab, reserves, v):
    # 1 - prod(1 - psi_k) without cancellation, so deep tails keep digits
    s = np.zeros_like(v)
    for (a, b), x in zip(ab, reserves):
        s += np.log1p(-a * np.exp(-b * (x + v)))
    return -np.expm1(s)


def _gl(f, lo, hi):
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return float(half * (_GL_W @ f(mid + half * _GL_X)))


def pooled_objective(spec, ab, reserves):
    """Distorted pooled deficit by Gauss-Legendre on doubling panels,
    split at the tvar kink; identity goes through inclusion-exclusion."""
    if spec[0] == "identity":
        return pooled_identity(ab, reserves)
    p = spec[1] if spec[0] == "ph" else 1.0
    scale = spec[1] if spec[0] == "tvar" else 1.0
    start = 0.0
    total = 0.0
    if spec[0] == "tvar":
        tail0 = float(_pooled_tail(ab, reserves, np.array([0.0]))[0])
        if tail0 > scale:
            # g = 1 until the pooled tail falls to alpha
            f = lambda v: float(_pooled_tail(ab, reserves, np.array([v]))[0]) - scale
            hi = 1.0
            while f(hi) > 0.0:
                hi *= 2.0
            start = bisect_decreasing(f, 0.0, hi)
            total = start
    g = lambda v: (_pooled_tail(ab, reserves, v) / scale) ** p
    b_min = min(b for _, b in ab)
    end = start + 60.0 / (p * b_min)  # g < exp(-60) beyond
    width = min(1.0, end - start)
    lo = start
    while lo < end:
        hi = min(lo + width, end)
        total += _gl(g, lo, hi)
        lo, width = hi, width * 1.5
    return total


def feasible_samples(total, k, rng, around):
    """Points of {u >= 0, sum u = total}: the vertices, Dirichlet draws,
    and moves of 5 % of the budget between two lines of a given split."""
    pts = [np.eye(k)[i] * total for i in range(k)]
    pts.extend(rng.dirichlet(np.ones(k), size=16) * total)
    step = 0.05 * total
    for i in range(k):
        for j in range(k):
            if i != j and around[i] >= step:
                q = np.array(around, dtype=float)
                q[i] -= step
                q[j] += step
                pts.append(q)
    return pts


def check_two_line_kkt(ab, reserves, what):
    """Identity pooled deficit of two lines: the marginal reductions
    -dF/du_k = p_k - b_k/(b_1 + b_2) * p_1 * p_2, with p_k = a_k*exp(-b_k*u_k),
    are equal when both lines hold reserve; a line left at zero reduces
    no more than the other."""
    (a1, b1), (a2, b2) = ab
    p1, p2 = a1 * math.exp(-b1 * reserves[0]), a2 * math.exp(-b2 * reserves[1])
    r = (p1 - b1 / (b1 + b2) * p1 * p2, p2 - b2 / (b1 + b2) * p1 * p2)
    if reserves[0] > 0.0 and reserves[1] > 0.0:
        close(r[0] / r[1], 1.0, f"{what}: marginal reductions")
    else:
        hold = 0 if reserves[0] > 0.0 else 1
        require(r[hold] >= r[1 - hold] * (1.0 - 1e-6), f"{what}: corner is not optimal")


def check_aggregate_split(spec, ab, total, reserves, objective, what, rng):
    """Budget identity with u >= 0, the reported objective matches the
    reference objective, and no sampled feasible split does better; two
    identity lines also meet the first-order conditions."""
    u = np.asarray(reserves, dtype=float)
    require(np.all(u >= 0.0), f"{what}: negative reserve in {u}")
    close(float(u.sum()), total, f"{what}: budget")
    if spec[0] == "identity" and len(ab) == 2:
        check_two_line_kkt(ab, u, what)
    mine = pooled_objective(spec, ab, u)
    close(objective, mine, f"{what}: objective")
    for q in feasible_samples(total, len(ab), rng, u):
        other = pooled_objective(spec, ab, q)
        require(
            mine <= other + 1e-9 * max(1.0, abs(other)),
            f"{what}: split {u} ({mine!r}) beaten by {q} ({other!r})",
        )


# -- empirical curves and Monte Carlo -----------------------------------------


def choquet_sum(spec, samples, shift=0.0):
    """Distorted mean of (X - shift)^+ from samples: descending order
    statistics weighted by g(i/n) - g((i-1)/n)."""
    x = np.sort(np.asarray(samples, dtype=float))[::-1]
    n = x.size
    grid = [g_value(spec, i / n) for i in range(n + 1)]
    weights = np.diff(np.array(grid))
    return float(weights @ np.maximum(x - shift, 0.0))


def within_se(got, want, se, k, what):
    if not abs(got - want) <= k * se:
        raise CheckError(f"{what}: {got!r} is more than {k} SE ({se!r}) from {want!r}")
