"""Reserve allocation across independent lines of business.  Every
route checks its input in _entry and builds its result in _certified.

- marginal sum ("water filling"): minimise the sum of per-line deficit
  curves.  Optimal reserves equalise the (distorted) ruin probabilities
  g_k(psi_k(u_k)) at a common threshold on the lines that receive
  anything.  Exponential lines water-fill exactly; other decreasing
  marginals take the active-set Newton method below, with the marginals
  as the gradient and their chords as a diagonal Hessian, from water
  filling on exponential fits.

- aggregate minimum: minimise the deficit of the pooled portfolio,
  whose first-passage probability for independent lines is
  1 - prod_k (1 - psi_k(u_k + v)).  Two identity-distorted lines admit
  a closed form.  Otherwise _newton_split solves the split from
  evaluations of the pooled deficit, its gradient and its Hessian: by
  inclusion-exclusion under a concave distortion with p = 1 (identity,
  ph:1, tvar) on up to _EXACT_MAX_LINES lines, else by one quadrature
  pass.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, DomainError, not_nan, real
from .model import ruin_constants, ultimate_ruin
from .numerics import DEFAULT_TOL, brent_root, tail_integral

_TINY, _HUGE = np.finfo(float).tiny, float(np.finfo(float).max)
# the largest budget: reserves that sum to it up to rounding stay below
# the largest float, and method1_generic's grid span 2U, at most 2**1023,
# has a reciprocal (a flat row's fitted rate) that inverts to a finite float
_BUDGET_MAX = 2.0**1022

# Newton steps allowed to the tvar edge v* and to the active-set splits
_NEWTON_STEPS = 100

# the exact aggregate route sums 2**K - 1 inclusion-exclusion terms,
# 4,095 at this many lines
_EXACT_MAX_LINES = 12


def _entry(items, total_u, gammas=()):
    """The budget as a float, or DomainError unless every allocation
    route's entry rules hold: at least one line or marginal in items,
    penalty exponents that are real numbers (not bools) from 1 up to the
    largest float, and a budget that is one from 0 up to _BUDGET_MAX."""
    if not items:
        raise DomainError("allocation needs at least one line")
    text = "penalty exponents must be reals in [1, inf)"
    for g in gammas:
        real(g, lambda x: 1.0 <= x <= _HUGE, text)
    text = "total reserve must be a real in [0, 2**1022]"
    return real(total_u, lambda x: 0.0 <= x <= _BUDGET_MAX, text)


@dataclass
class AllocationResult:
    """Optimal reserves with the optimality evidence, by one rule on
    every route (_certified builds each result).

    A line's reduction is the objective's fall per unit of reserve added
    to it: its distorted ruin probability for the marginal sum, its
    marginal risk reduction for the aggregate minimum.  threshold is
    their mean on the active lines, those holding reserve (the largest
    reduction where none is), as a float that may round to 0; objective
    is the minimised sum or pooled deficit, unscaled; kkt_residual is
    the largest reduction less the smallest active one, relative to that
    mean and taken in a route's scaled units, so it stays finite where
    threshold rounds to 0, and inf only where the float resolution of
    water filling's reserves exceeds a decay length.  Bad input raises
    DomainError.
    """

    reserves: np.ndarray
    active: list
    threshold: float
    objective: float
    kkt_residual: float


def method1_exponential(lines, total_u, gammas=None):
    """Marginal-sum allocation for exponential lines by exact water filling.

    gammas holds one penalty exponent per line, 1 for every line by
    default, applied as the distortion x**(1/gamma) to that line's ruin
    probability; gamma 1 leaves the line undistorted.  With marginal
    level m_k(u) = a_k**(1/gamma_k) * exp(-b_k u / gamma_k) the optimal
    reserve at threshold s is max(0, w_k log(top_k / s)) with w_k =
    gamma_k / b_k and top_k = m_k(0).  Lines enter in order of decreasing
    top; on an active prefix the budget is linear in log s, so log s =
    (sum w_k log top_k - U) / sum w_k, and the prefix stops growing once
    log s reaches the next line's log top.  Lines with a_k = 0 never
    become active.  The levels are certified in the unit s, formed in
    logs.  A w_k past the largest float raises DomainError.
    """
    gammas = (1.0,) * len(lines) if gammas is None else gammas
    total_u = _entry(lines, total_u, gammas)
    if len(gammas) != len(lines):
        raise DomainError("one penalty exponent per line is required")
    consts = [ruin_constants(line) for line in lines]
    a = np.array([k.a for k in consts])
    b = np.array([k.b for k in consts])
    gam = np.array(gammas, dtype=float)
    if np.all(a == 0.0):
        raise DomainError("every line is degenerate: nothing to allocate")
    tops = a ** (1.0 / gam)
    with np.errstate(over="ignore"):
        w = gam / b
    if not np.isfinite(w).all():
        text = "penalty exponents over decay rates must be finite"
        raise DomainError(f"{text}: {tuple(gam.tolist())!r}")
    with np.errstate(divide="ignore"):
        log_tops = np.log(tops)
    u, log_s = np.zeros(len(consts)), float(log_tops.max())
    if total_u > 0.0:
        u, log_s = _water_fill(log_tops, w, total_u)
    objective = float((w * tops * np.exp(-b * u / gam)).sum())
    # past the float resolution of u the relative levels overflow
    with np.errstate(over="ignore"):
        relative = np.exp(log_tops - b * u / gam - log_s)
        return _certified(u, objective, relative, math.exp(log_s))


def _water_fill(log_tops, w, total_u, heads=None):
    """Reserves that sum to total_u > 0 at a threshold s, and log s.  Line
    k holds max(0, w_k (head_k - log s)) once log s is below its log top,
    so a head above the top (heads default to the tops) is a plateau that
    the line enters with a jump.  Lines enter in order of decreasing log
    top; one at -inf never does.  Where the budget runs out inside the
    jumps at one log top, log s stays there and the lines jumping there
    share what the others leave, in proportion to their jumps."""
    heads = log_tops if heads is None else heads
    order = np.argsort(-log_tops, kind="stable")
    sorted_log_tops = log_tops[order]
    sorted_w = w[order]
    # log threshold with the first j + 1 lines active, for every j
    prefix_log_s = (
        np.cumsum(sorted_w * heads[order]) - total_u
    ) / np.cumsum(sorted_w)
    next_log_tops = np.append(sorted_log_tops[1:], -np.inf)
    j = np.argmax(prefix_log_s >= next_log_tops)
    log_s = float(prefix_log_s[j])
    inside = log_s >= sorted_log_tops[j]
    if inside:
        # the budget runs out inside the jumps at line j's top, if any
        at = log_tops == sorted_log_tops[j]
        jumps = w[at] * (heads[at] - log_tops[at])
        inside = jumps.any()
        log_s = float(sorted_log_tops[j]) if inside else log_s
    u = np.where(log_tops > log_s, w * (heads - log_s), 0.0)
    if inside:
        u[at] = jumps * ((total_u - u.sum()) / jumps.sum())
    if not u.any():
        # a budget below the rounding of log s goes to the top line
        u[order[0]] = total_u
    # the sum keeps U only to the rounding of w_k (log top_k - log s)
    return u * (total_u / u.sum()), log_s


def _grid_fit(values, grid):
    """Log tops, heads and rates of exponential fits exp(head - rate u)
    to marginals sampled on a uniform grid from 0, one row each.  A fit
    runs through the first two grid points below the row's top, past any
    plateau, which water filling enters with a jump to the head.  Where
    the second point is not positive and below the first, the fit takes
    the point before them, a level that underflows counts as the least
    float, and a row flat over the whole grid jumps to the grid's end."""
    fits = []
    for row in values.tolist():
        top = row[0]
        log_top = math.log(top) if top > 0.0 else -math.inf
        first = next((i for i, v in enumerate(row) if v < top), None)
        if first is None:
            fits.append((log_top, log_top + 1.0, 1.0 / grid[-1]))
            continue
        pair = first + 1 < len(row) and 0.0 < row[first + 1] < row[first]
        p = first if pair else first - 1
        log_p = math.log(row[p])
        rate = (log_p - math.log(max(row[p + 1], math.ulp(0.0)))) / grid[1]
        fits.append((log_top, max(log_p + rate * grid[p], log_top), rate))
    return [np.array(column) for column in zip(*fits)]


def _objective_tol(deficit):
    """DEFAULT_TOL with abs_tol lowered to rel_tol * deficit where that is
    smaller and positive, for the objective passes of a split whose
    objective is about deficit at the start."""
    floor = DEFAULT_TOL.rel_tol * deficit
    if 0.0 < floor < DEFAULT_TOL.abs_tol:
        return replace(DEFAULT_TOL, abs_tol=floor)
    return DEFAULT_TOL


def _marginal_objective(marginals, u, tol, scale):
    """The sum over lines of the integral of m_k from u_k: one tail
    integral over w >= 0 of the sum of m_k(u_k + w), whose slowest
    decay length is about scale."""
    held = list(zip(marginals, u.tolist()))
    return tail_integral(lambda w: sum(m(x + w) for m, x in held), 0.0, tol, scale)


def method1_generic(marginals, total_u):
    """Marginal-sum allocation for arbitrary decreasing marginal maps.

    marginals are callables u -> distorted ruin probability of one line;
    each must accept an ndarray of reserves as well as a float.  A
    41-point grid rejects marginals that are not finite or not monotone
    and fits each by an exponential past its plateau (_grid_fit).  Water
    filling on the fits starts _newton_split on F(u) = sum_k of the
    integral of m_k from u_k, with gradient -m_k(u_k) and a diagonal
    Hessian -m_k'(u_k) from the fit's slope, then from the chord of m_k
    between its last two evaluated reserves, kept while u_k does not
    move: an exponential marginal, flat up to an edge or not, is
    certified in one evaluation.  The unit is the fitted threshold, and F
    is integrated to rel_tol of the fitted deficit, so tiny levels and
    deficits keep their precision; a threshold that underflows raises
    DomainError.  F's tail integral takes the slowest fit's decay length,
    1/min(rate), as the scale of its one-call stage.
    """
    total_u = _entry(marginals, total_u)
    span = max(1.0, 2.0 * total_u)
    grid = np.linspace(0.0, span, 41)
    values = np.array([m(grid) for m in marginals])
    if not np.isfinite(values).all():
        raise DomainError("marginal map is not finite on the grid")
    if np.any(np.diff(values, axis=1) > 1e-12):
        raise DomainError("marginal map is not nonincreasing")
    if values[:, 0].max() <= 0.0:
        raise DomainError("every marginal vanishes: nothing to allocate")
    log_tops, heads, rates = _grid_fit(values, grid)
    u, log_s = np.zeros(len(marginals)), log_tops.max()
    if total_u > 0.0:
        u, log_s = _water_fill(log_tops, 1.0 / rates, total_u, heads)
    unit = math.exp(log_s)
    fitted = np.exp(np.minimum(log_tops, heads - rates * u)) / rates
    tol = _objective_tol(float(fitted.sum()))
    decay = 1.0 / float(rates.min())
    seen = []

    def evaluate(u):
        levels = np.array([m(x) for m, x in zip(marginals, u.tolist())]) / unit
        slope = rates * levels
        if seen:
            with np.errstate(divide="ignore", invalid="ignore"):
                chord = (seen[1] - levels) / (u - seen[0])
            # a reserve that did not move keeps its last chord
            slope = np.where(np.isnan(chord), seen[2], chord)
        seen[:] = u, levels, slope
        return _marginal_objective(marginals, u, tol, decay) / unit, -levels, slope

    if unit > 0.0:
        # the fits' decay lengths, capped at the grid's span, set the scale
        res = _newton_split(evaluate, u, np.maximum(rates, 1.0 / span), unit)
        if res.threshold > 0.0:
            return res
    raise DomainError(f"every marginal level underflows at the split of {total_u}")


def rho2_two_line(line1, line2, u1, u2):
    """Identity-distorted deficit of two pooled independent lines at
    reserves (u1, u2): the sum of the single-line curves minus the
    joint-survival correction."""
    text = "reserves must be real numbers >= 0"
    u1, u2 = (real(u, lambda x: x >= 0.0, text) for u in (u1, u2))
    k1 = ruin_constants(line1)
    k2 = ruin_constants(line2)
    single = k1.a / k1.b * math.exp(-k1.b * u1) + k2.a / k2.b * math.exp(-k2.b * u2)
    joint = (
        k1.a * k2.a / (k1.b + k2.b) * math.exp(-k1.b * u1 - k2.b * u2)
    )
    return single - joint


def _reductions(k1, k2, u1, u2):
    # marginal decrease of rho2 per unit of reserve on each line
    p1 = k1.a * math.exp(-k1.b * u1)
    p2 = k2.a * math.exp(-k2.b * u2)
    bsum = k1.b + k2.b
    return p1 - k1.b / bsum * p1 * p2, p2 - k2.b / bsum * p1 * p2


def _log_reduction_gap(k1, k2, u1, u2):
    # log r1 - log r2 for the reductions of _reductions, written so that
    # neither reduction is formed: the gap keeps full relative accuracy
    # however small both reductions are
    p1 = k1.a * math.exp(-k1.b * u1)
    p2 = k2.a * math.exp(-k2.b * u2)
    bsum = k1.b + k2.b
    log_r1 = math.log(k1.a) - k1.b * u1 + math.log1p(-k1.b / bsum * p2)
    log_r2 = math.log(k2.a) - k2.b * u2 + math.log1p(-k2.b / bsum * p1)
    return log_r1 - log_r2


def method2_two_line(line1, line2, total_u):
    """Aggregate-minimum split of a budget over two identity-distorted
    exponential lines.

    Along the budget line the pooled deficit is convex, so the optimum
    is the unique zero of the reduction gap; when the gap already has a
    sign at an endpoint it sits in that corner with the whole budget on
    one line.  Inside, the root is taken on the gap of log reductions,
    which does not shrink with the reductions as the budget grows.
    """
    total_u = _entry((line1, line2), total_u)
    k1 = ruin_constants(line1)
    k2 = ruin_constants(line2)

    def gap(u1):
        r1, r2 = _reductions(k1, k2, u1, total_u - u1)
        return r1 - r2

    if gap(0.0) <= 0.0:
        u = np.array([0.0, total_u])
    elif gap(total_u) >= 0.0:
        u = np.array([total_u, 0.0])
    else:
        # gap(0) > 0 > gap(U) needs a1 > 0 and a2 > 0, so both logs exist
        u1 = brent_root(
            lambda x: _log_reduction_gap(k1, k2, x, total_u - x), 0.0, total_u
        )
        u = np.array([u1, total_u - u1])
    red = np.array(_reductions(k1, k2, u[0], u[1]))
    return _certified(u, rho2_two_line(line1, line2, u[0], u[1]), red)


def _certified(u, f, reductions, unit=1.0):
    """The result at the split u with objective f, by AllocationResult's
    rule, from the lines' reductions in multiples of unit: threshold is
    unit times their mean on the active lines.  Reductions that overflow
    give threshold 0, as unit then has underflowed, and kkt_residual
    inf."""
    active = (u > 0.0).nonzero()[0]
    top = float(reductions.max())
    on = reductions[active] if active.size else np.array([top])
    level = float(on.sum()) / on.size
    resid = (top - float(on.min())) / max(level, 1e-300)
    if level == math.inf:
        level, resid = 0.0, math.inf
    return AllocationResult(u, active.tolist(), level * unit, float(f), resid)


def psi_tilde(lines, reserves, v):
    """First-passage probability of the pooled portfolio past the total
    barrier: one minus the product of per-line survivals at u_k + v.

    Accepts a real number v, which gives a float, or an ndarray of v; a
    NaN v raises DomainError, as does a v of any other type.
    """
    if len(reserves) != len(lines):
        raise DomainError("one reserve per line is required")
    text = "reserves must be real numbers >= 0"
    reserves = [real(u, lambda x: x >= 0.0, text) for u in reserves]
    if not isinstance(v, np.ndarray):
        v = real(v, not_nan, "v must be an ndarray or a real")
    # summing log survivals keeps the tail accurate far below 1e-16,
    # where one minus a product of survivals rounds to zero; a line
    # below its barrier survives with log 0 = -inf, so the tail is 1
    with np.errstate(divide="ignore"):
        log_survive = sum(
            np.log1p(-ultimate_ruin(line, u + v)) for line, u in zip(lines, reserves)
        )
    tail = -np.expm1(log_survive)
    return tail if np.ndim(tail) else float(tail)


def _pooled_deficit(a, b, g, u, tol):
    """The distorted pooled deficit F(u) = integral over v >= 0 of
    g(psi~(u, v)), its gradient in u and its Hessian, from one vectorised
    quadrature.

    a and b hold the lines' ruin constants.  With psi_k = a_k exp(-b_k
    (u_k + v)), S = prod_k (1 - psi_k) and q_k = b_k psi_k / (1 - psi_k),
    psi~ = 1 - S and d psi~ / d u_k = -S q_k, so the gradient integrand is
    -g' S q and the Hessian's is (g'' S**2 - g' S) q q^T + diag(g' S b q
    / (1 - psi)), all on the objective's nodes.  For tvar, g is 1 until
    psi~ falls to its edge alpha at v*: F = v* + the integral past v*, the
    gradient's boundary terms cancel as g(psi~(v*)) = 1, and the Hessian
    adds the move of v*, g'(alpha) p p^T / sum(p) for p = d psi~ / du
    there.  Past v* the tail is clamped at the edge, which it exceeds only
    by v*'s rounding, so no jump of g' is left for the quadrature."""
    s, _, edge = g.primitive_pieces
    start = 0.0
    if edge < math.inf:
        start = _tvar_edge(a.tolist(), b.tolist(), u.tolist(), edge)
    k = a.size
    a_, b_, u_ = a[:, None], b[:, None], u[:, None]

    def integrand(v):
        psi = a_ * np.exp(-b_ * (u_ + v))
        log_survive = np.log1p(-psi).sum(axis=0)
        survive = np.exp(log_survive)
        tail = np.minimum(-np.expm1(log_survive), edge)
        q = b_ * psi / (1.0 - psi)
        # a tail that underflows to 0 has q = 0; derivatives keeps g' and
        # g'' finite there, so that ph's infinite slope makes no 0 * inf
        value, slope, curvature = g.derivatives(tail)
        lift = slope * survive
        bend = curvature * survive**2 - lift
        out = np.empty((1 + k + k * k, v.size))
        out[0] = value
        np.multiply(-lift, q, out=out[1:k + 1])
        np.multiply(bend * q[:, None], q, out=out[k + 1:].reshape(k, k, -1))
        # b / (1 - psi) = b + q on the diagonal
        out[k + 1::k + 1] += lift * q * (b_ + q)
        return out

    # the slowest line's decay length sets the exp-sinh layout's scale
    out = tail_integral(integrand, start, tol, 1.0 / float(b.min()))
    hess = out[k + 1:].reshape(k, k)
    if start > 0.0:
        psi = a * np.exp(-b * (u + start))
        p = -b * psi * (1.0 - edge) / (1.0 - psi)
        # g'(alpha) = 1/s, as a finite edge comes with the power 1
        hess = hess + (1.0 / s) * np.outer(p, p) / p.sum()
    return start + float(out[0]), out[1:k + 1], hess


def _tvar_edge(a, b, u, alpha):
    """The point v* >= 0 where the pooled tail psi~(u, v) falls to alpha,
    0 when psi~(u, 0) <= alpha already; a, b and u are lists of floats.

    The log survival sum_k log(1 - q_k), q_k = a_k exp(-b_k (u_k + v)),
    is concave and increasing in v with slope sum_k b_k q_k / (1 - q_k),
    so Newton steps from v = 0 rise to the root without passing it.
    """
    target = math.log1p(-alpha)
    v = 0.0
    for _ in range(_NEWTON_STEPS):
        q = [ak * math.exp(-bk * (uk + v)) for ak, bk, uk in zip(a, b, u)]
        gap = target - sum(math.log1p(-qk) for qk in q)
        if gap <= 0.0:
            return v
        step = gap / sum(bk * qk / (1.0 - qk) for bk, qk in zip(b, q))
        v += step
        if step <= 1e-15 * v:
            return v
    raise ConvergenceError(f"tvar edge not reached in {_NEWTON_STEPS} Newton steps")


def _first_split(lines, g, total_u):
    """The lines' ruin constants a and b, and the split where the
    aggregate routes start: all of U on the line with the largest
    water-filling reserve, unless water filling is surely better.  For a
    concave g, F lies between the largest single-line deficit G(psi_k(u_k))
    / b_k and their sum, so water filling wins where its sum is below the
    vertex's largest: the optimum then lies far inside, and Newton steps
    from the vertex would near it one decay length at a time."""
    total_u = _entry(lines, total_u)
    consts = [ruin_constants(line) for line in lines]
    a = np.array([c.a for c in consts])
    b = np.array([c.b for c in consts])
    if total_u == 0.0 or not a.any():
        # nothing to move, or no line can be ruined: F is 0 everywhere
        return a, b, np.full(a.size, total_u / a.size)
    with np.errstate(divide="ignore"):
        water, _ = _water_fill(np.log(a), 1.0 / b, total_u)
    vertex = np.zeros(a.size)
    vertex[np.argmax(water)] = total_u
    single = lambda u: g.primitive(a * np.exp(-b * u)) / b
    return a, b, (water if single(water).sum() < single(vertex).max() else vertex)


def _newton_split(evaluate, u, b, unit=1.0):
    """Minimise a convex F over the budget simplex {u >= 0, sum u = U}
    by active-set Newton steps from the split u; returns the optimum.
    F is the pooled deficit on the aggregate routes and the sum of the
    marginal deficits in method1_generic, whose Hessian is diagonal.

    evaluate(u) gives F, grad F and the Hessian of F, or its diagonal as
    a 1-d array, all divided by unit.  Each step solves the bordered KKT
    system on the lines holding reserve (_kkt_step), a ratio test lets
    one leave, and Armijo backtracking follows.  Once the step is small
    the idle line whose reduction most exceeds the multiplier enters;
    below 1e-14 of U plus the decay lengths 1/b with none to enter, the
    split is optimal, so a certified vertex takes one evaluation and no
    solve, and a certified start with a diagonal Hessian one evaluation
    and no np.linalg.solve.  The per-line bookkeeping runs on lists, as
    K is small and numpy's cost per call would exceed the work."""
    k, total = u.size, float(u.sum())
    scale = total + float((1.0 / b).sum())
    free = (u > 0.0).tolist()
    f, grad, hess = evaluate(u)
    # steps below step_tol are rounding, below enter_tol a line may enter
    step_tol, enter_tol = 1e-14 * scale, 1e-2 * scale
    for _ in range(_NEWTON_STEPS):
        on = [i for i, held in enumerate(free) if held]
        if not on:
            break
        g = grad.tolist()
        step = [0.0] * k
        # the ratio test: the first line that a full step would empty
        leave, reach = 0, math.inf
        if len(on) > 1:
            d, level = _kkt_step(g, hess, on, scale)
            u_ = u.tolist()
            for i, di in zip(on, d):
                step[i] = di
                if di < 0.0 and u_[i] / -di < reach:
                    leave, reach = i, u_[i] / -di
            size = max(map(abs, d))
        else:
            level, size = -g[on[0]], 0.0
        if size <= enter_tol:
            # the first idle line whose reduction most exceeds the level
            enter, most = -1, 1e-11 * level
            for i, (gi, held) in enumerate(zip(g, free)):
                if not held and -gi - level > most:
                    enter, most = i, -gi - level
            if enter >= 0:
                free[enter] = True
                continue
            if size <= step_tol:
                break
        if reach == 0.0:
            # an early entrant shrinks at once: it leaves, and entry waits
            free[leave], enter_tol = False, step_tol
            continue
        t = min(1.0, reach)
        blocked = t < 1.0
        slope = sum(gi * si for gi, si in zip(g, step))
        while True:
            cand = [ui + t * si for ui, si in zip(u_, step)]
            if blocked:
                cand[leave] = 0.0
            cand = np.array(cand)
            fc, gc, hc = evaluate(cand)
            # the allowance lets steps through whose decrease is below
            # the rounding of F near the optimum
            if fc <= f + 1e-4 * t * slope + 1e-13 * abs(f):
                break
            t *= 0.5
            blocked = False
            if t < 1e-12:
                raise ConvergenceError("split line search stalled")
        if blocked:
            free[leave] = False
        u, f, grad, hess = cand, fc, gc, hc
    else:
        raise ConvergenceError(f"split not settled in {_NEWTON_STEPS} Newton steps")
    if abs(float(u.sum()) - total) > 1e-12 * total:
        # steps keep U to the rounding of t * step, near the least float U itself
        u = u * (total / u.sum())
        u[u.argmax()] += total - u.sum()
    return _certified(u, f * unit, -grad, unit)


def _kkt_step(g, hess, on, scale):
    """The Newton step on the lines on, a list that sums to 0, and the
    multiplier level, from the bordered system H d + level = -g, sum d =
    0, for the gradient list g and H the Hessian hess on those lines, or
    diag(hess) there for a 1-d hess.  A ridge adds 1e-9 of the largest
    |g| per scale to H's diagonal: where F is linear in a line (far past
    the tvar edge) it bounds the step to about 1e9 scales, for the ratio
    test to cut.  A diagonal H gives d_k = -(g_k + level) / h_k with
    level set by sum d = 0, in closed form."""
    n = len(on)
    g = [g[i] for i in on]
    ridge = max(1e-9 * max(map(abs, g)) / scale, _TINY)
    h = hess.tolist()
    if hess.ndim == 1:
        inv = [1.0 / (h[i] + ridge) for i in on]
        level = -sum(gi * w for gi, w in zip(g, inv)) / sum(inv)
        d = [-(gi + level) * w for gi, w in zip(g, inv)]
    else:
        # rows of H on the lines with the ridge, bordered by ones and a zero
        kkt = [[h[i][j] for j in on] + [1.0] for i in on]
        for j in range(n):
            kkt[j][j] += ridge
        kkt.append([1.0] * n + [0.0])
        *d, level = np.linalg.solve(kkt, [-gi for gi in g] + [0.0]).tolist()
    # the solve keeps the budget only up to its conditioning
    drift = sum(d) / n
    return [x - drift for x in d], level


def method2_generic(lines, g, total_u):
    """Aggregate-minimum split for any number of lines and a concave
    distortion of the pooled curve: _newton_split from _first_split over
    quadrature passes that each give F, its gradient and its Hessian (see
    _pooled_deficit), at a tolerance set once, min(abs_tol, rel_tol * D)
    for the largest single-line deficit D at the first split, a lower
    bound on F there."""
    if not g.concave:
        raise DomainError("aggregate objective needs a concave distortion")
    a, b, u = _first_split(lines, g, total_u)
    tol = _objective_tol(float(np.max(g.primitive(a * np.exp(-b * u)) / b)))
    return _newton_split(lambda u: _pooled_deficit(a, b, g, u, tol), u, b)


@functools.lru_cache(maxsize=_EXACT_MAX_LINES)
def _subsets(k):
    """Every nonempty subset of k lines as a 0/1 membership row followed
    by a 1, and the inclusion-exclusion sign (-1)**(|S| + 1) of each."""
    member = (np.arange(1, 2**k)[:, None] >> np.arange(k)) & 1
    sign = np.where(member.sum(axis=1) % 2 == 1, 1.0, -1.0)
    rows = np.hstack((member, np.ones((member.shape[0], 1))))
    rows.flags.writeable = False
    sign.flags.writeable = False
    return rows, sign


def _exact_pass(a, b, s, shift=0.0):
    """F, grad F and the Hessian of F for the pooled deficit under
    g(x) = min(x/s, 1), identity or ph:1 at s = 1 and tvar(s) below, as
    a function of the reserves u, all three scaled by exp(-shift).

    With psi_k = a_k exp(-b_k (u_k + v)), inclusion-exclusion gives the
    identity deficit F_id(u) as the sum over nonempty subsets S of
    T_S = (-1)**(|S| + 1) prod_{k in S} a_k exp(-b_k u_k) / sum_{k in S} b_k,
    each formed in logs, and d T_S / d u_k = -b_k T_S for k in S, so one
    product of the membership rows, weighted by T_S and scaled by (-b, 1),
    holds the Hessian, the gradient and F.  For tvar, F = v* + F_id(u +
    v*)/s, its gradient follows as in _pooled_deficit, and the
    Hessian adds p p^T / sum(p) for p = d psi~/du at u + v*."""
    rows, sign = _subsets(a.size)
    member = rows[:, :-1]
    with np.errstate(divide="ignore"):
        # a line without claims gives terms of exactly 0, not 0 * -inf,
        # however far the shift lies below 0
        log_a = np.maximum(np.log(a), shift - 1e300)
    log_rate = np.log(member @ b)
    scaled_rows = rows * np.append(-b, 1.0)
    af, bf = a.tolist(), b.tolist()

    def evaluate(u):
        v = _tvar_edge(af, bf, u.tolist(), s) if s < 1.0 else 0.0
        log_psi = log_a - b * (u + v)
        terms = sign * np.exp(member @ log_psi - log_rate - shift)
        z = scaled_rows.T @ (terms[:, None] * scaled_rows)
        f, grad, hess = z[-1, -1], z[:-1, -1], z[:-1, :-1]
        if v > 0.0:
            psi = np.exp(log_psi)
            p = -b * psi * (1.0 - s) / (1.0 - psi)
            hess = hess + np.outer(p * math.exp(-shift), p) / p.sum()
            f = f + s * v * math.exp(-shift)
        return f / s, grad / s, hess / s

    return evaluate


def method2_exact(lines, g, total_u):
    """Aggregate-minimum split under a concave distortion with p = 1
    (identity, ph:1, tvar) for 1 to _EXACT_MAX_LINES lines, with no
    quadrature: _newton_split from _first_split on F, its gradient and
    its Hessian from inclusion-exclusion (see _exact_pass), whose terms
    are scaled by the largest log ruin level at the first split, so that
    deficits far below the smallest float still give a split."""
    s, p, _ = g.primitive_pieces
    if not (g.concave and p == 1.0):
        raise DomainError(f"exact aggregate route cannot take {g.label()}")
    if len(lines) > _EXACT_MAX_LINES:
        raise DomainError(f"exact aggregate route takes up to {_EXACT_MAX_LINES} lines")
    a, b, u = _first_split(lines, g, total_u)
    with np.errstate(divide="ignore"):
        shift = float(np.max(np.log(a) - b * u)) if a.any() else 0.0
    return _newton_split(_exact_pass(a, b, s, shift), u, b, math.exp(shift))


def aggregate_min(lines, g, total_u):
    """Aggregate-minimum split, routed by g's primitive pieces.  A
    concave g with p = 1 takes the closed two-line route on two lines
    without an edge (identity, ph:1), else the exact inclusion-exclusion
    route up to _EXACT_MAX_LINES lines; ph below 1 and more lines take
    the quadrature route, with the same Newton steps."""
    _, p, edge = g.primitive_pieces
    exact = g.concave and p == 1.0
    if exact and len(lines) == 2 and edge == math.inf:
        return method2_two_line(lines[0], lines[1], total_u)
    if exact and len(lines) <= _EXACT_MAX_LINES:
        return method2_exact(lines, g, total_u)
    return method2_generic(lines, g, total_u)


def invariance_check(lines, g, total_u):
    """True when distorting every marginal by the same strictly
    increasing g leaves the marginal-sum allocation unchanged, every
    reserve within 1e-6.

    The threshold moves through g but the equalised reserves do not.
    """
    if not g.concave:
        raise DomainError("invariance needs a strictly increasing distortion")
    base = method1_exponential(lines, total_u)
    marginals = [
        (lambda u, line=line: g(ultimate_ruin(line, u))) for line in lines
    ]
    distorted = method1_generic(marginals, total_u)
    return bool(np.max(np.abs(base.reserves - distorted.reserves)) <= 1e-6)
