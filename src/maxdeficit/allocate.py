"""Reserve allocation across independent lines of business.

Two ways to split a total reserve u over K exponential lines:

- marginal sum ("water filling"): minimise the sum of per-line deficit
  curves.  Optimal reserves equalise the (distorted) ruin probabilities
  g_k(psi_k(u_k)) at a common threshold on the set of lines that
  receive anything; lines whose zero-reserve level already sits below
  the threshold get nothing.

- aggregate minimum: minimise the deficit of the pooled portfolio,
  whose first-passage probability for independent lines is
  1 - prod_k (1 - psi_k(u_k + v)).  Two identity-distorted lines admit
  a closed form.  Otherwise one active-set Newton method solves the
  split from the pooled deficit, its gradient and its Hessian, which
  inclusion-exclusion over the subsets of lines gives exactly under a
  concave distortion with p = 1 (identity, ph:1, tvar) on up to
  _EXACT_MAX_LINES lines, and one quadrature pass gives in any other case.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, DomainError
from .model import ruin_constants, ultimate_ruin
from .numerics import DEFAULT_TOL, Tolerance, brent_root, tail_integral

_LEVEL_FLOOR = 1e-14
_TINY = np.finfo(float).tiny

# the budget responds to the threshold with slope sum(gamma_k / b_k) / s,
# which can reach 1e4, so the level solve runs much tighter than the
# reserve tolerance it must deliver
_LEVEL_TOL = Tolerance(abs_tol=1e-14, rel_tol=1e-14)

# chord refits of method1_generic's exponential fits before it brackets
_FIT_ROUNDS = 4

# Newton steps allowed to the tvar edge v* and to the exact aggregate split
_NEWTON_STEPS = 100

# the exact aggregate route sums 2**K - 1 inclusion-exclusion terms,
# 4,095 at this many lines
_EXACT_MAX_LINES = 12


def _check_budget(total_u):
    if not 0.0 <= total_u < math.inf:
        raise DomainError(f"total reserve must be finite and >= 0, got {total_u}")


@dataclass(frozen=True)
class AllocationProblem:
    """A marginal-sum reserve split instance: lines, tail penalties, budget.

    gammas are per-line finite penalty exponents (>= 1) applied as the
    distortion x**(1/gamma) to that line's ruin probability; gamma 1
    leaves the line undistorted.
    """

    lines: tuple
    total_u: float
    gammas: tuple = None

    def __post_init__(self):
        lines = tuple(self.lines)
        object.__setattr__(self, "lines", lines)
        if not lines:
            raise DomainError("allocation needs at least one line")
        gammas = self.gammas
        if gammas is None:
            gammas = (1.0,) * len(lines)
        gammas = tuple(float(g) for g in gammas)
        object.__setattr__(self, "gammas", gammas)
        if len(gammas) != len(lines):
            raise DomainError("one penalty exponent per line is required")
        if not all(1.0 <= g < math.inf for g in gammas):
            raise DomainError(f"penalty exponents must be in [1, inf), got {gammas}")
        _check_budget(self.total_u)


@dataclass
class AllocationResult:
    """Optimal reserves with the optimality evidence.

    threshold is the equalised level on the active set (the distorted
    ruin probability for the marginal-sum method, the marginal risk
    reduction for the aggregate method); kkt_residual is the relative
    spread of that level across active lines where it is recomputed
    numerically.
    """

    reserves: np.ndarray
    active: list
    threshold: float
    objective: float
    kkt_residual: float = None


def method1_exponential(problem):
    """Marginal-sum allocation for exponential lines by exact water filling.

    With marginal level m_k(u) = a_k**(1/gamma_k) * exp(-b_k u /
    gamma_k) the optimal reserve at threshold s is
    max(0, w_k log(top_k / s)) with w_k = gamma_k / b_k and top_k =
    m_k(0).  Lines enter in order of decreasing top; on an active
    prefix the budget is linear in log s, so log s = (sum w_k log top_k
    - U) / sum w_k, and the prefix stops growing once log s reaches the
    next line's log top.  Lines with a_k = 0 never become active.
    """
    consts = [ruin_constants(line) for line in problem.lines]
    a = np.array([k.a for k in consts])
    b = np.array([k.b for k in consts])
    gam = np.array(problem.gammas)
    if np.all(a == 0.0):
        raise DomainError("every line is degenerate: nothing to allocate")
    tops = a ** (1.0 / gam)
    w = gam / b

    def objective_at(u):
        return float((w * tops * np.exp(-b * u / gam)).sum())

    if problem.total_u == 0.0:
        zero = np.zeros(len(consts))
        return AllocationResult(zero, [], float(tops.max()), objective_at(zero), 0.0)

    with np.errstate(divide="ignore"):
        log_tops = np.log(tops)
    u, log_s = _water_fill(log_tops, w, problem.total_u)
    active = [int(i) for i in np.flatnonzero(u > 0.0)]
    # levels relative to the threshold, kept in logs so a threshold
    # that underflows still gives a finite certificate
    relative = np.exp(log_tops[active] - b[active] * u[active] / gam[active] - log_s)
    spread = float(np.ptp(relative)) if active else 0.0
    return AllocationResult(u, active, math.exp(log_s), objective_at(u), spread)


def _water_fill(log_tops, w, total_u):
    """Reserves max(0, w_k log(top_k / s)) that sum to total_u > 0, and
    log s.  Lines enter in order of decreasing log top; a line with log
    top -inf never does."""
    order = np.argsort(-log_tops, kind="stable")
    sorted_log_tops = log_tops[order]
    sorted_w = w[order]
    # log threshold with the first j + 1 lines active, for every j
    prefix_log_s = (
        np.cumsum(sorted_w * sorted_log_tops) - total_u
    ) / np.cumsum(sorted_w)
    next_log_tops = np.append(sorted_log_tops[1:], -np.inf)
    log_s = float(prefix_log_s[np.argmax(prefix_log_s >= next_log_tops)])
    u = np.maximum(0.0, w * (log_tops - log_s))
    if not u.any():
        # a budget below the rounding of log s goes to the top line
        u[order[0]] = total_u
    # the sum keeps U only to the rounding of w_k (log top_k - log s)
    return u * (total_u / u.sum()), log_s


def _log(x):
    """ln x for x > 0, -inf otherwise."""
    return math.log(x) if x > 0.0 else -math.inf


def _inverse_marginal(m, log_top, log_level, seed):
    """Reserve u with ln m(u) = log_level, 0 where log_top = ln m(0) is
    no higher; the doubling bracket starts from seed, a reserve at a
    nearby level; the gap at 0 is log_top - log_level, with no call.
    Where m underflows to 0 the plain level gap stands in for the log
    gap, with the same sign."""
    if log_level >= log_top:
        return 0.0
    level = math.exp(log_level)

    def gap(u):
        if u == 0.0:
            return log_top - log_level
        value = m(u)
        return math.log(value) - log_level if value > 0.0 else value - level

    lo, hi = 0.0, seed if seed > 0.0 else 1.0
    for _ in range(200):
        if gap(hi) <= 0.0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise ConvergenceError("marginal level not reached while expanding")
    return brent_root(gap, lo, hi, _LEVEL_TOL)


def _fitted_split(marginals, log_tops, rates, total_u):
    """Water filling on the exponential fits top_k * exp(-rates[k] * u) of
    the marginals, each active line refitted to its chord in ln m from 0
    to its reserve until every active ln m matches ln s, s the threshold,
    to rounding, and once more to polish.  Returns the reserves and ln s
    of the last fit (None before any), the largest gap of an active ln m
    from ln s at the last check (inf before any), and whether the fits
    settled; they do not where a rate is not finite and positive or
    _FIT_ROUNDS rounds pass without agreement."""
    u = log_s = None
    miss, settled = math.inf, False
    log_top_array = np.array(log_tops)
    for _ in range(_FIT_ROUNDS):
        if not all(0.0 < rate < math.inf for rate in rates):
            break
        u, log_s = _water_fill(log_top_array, 1.0 / np.array(rates), total_u)
        if settled:
            break
        tol = 1e-14 * max(1.0, abs(log_s))
        miss, settled = 0.0, True
        for k, x in enumerate(u.tolist()):
            if x > 0.0:
                log_level = _log(marginals[k](x))
                miss = max(miss, abs(log_level - log_s))
                settled = settled and abs(log_level - log_s) <= tol
                chord = (log_tops[k] - log_level) / x
                # a reserve within rounding of 0 leaves its chord to rounding
                if chord > 0.0:
                    rates[k] = chord
    return u, log_s, miss, settled


def _level_bracket(gap, start, step, top):
    """Ends lo < hi of ln s with gap(lo) > 0 >= gap(hi), found by steps
    of step, 2 step, 4 step, ... from start toward the sign change; hi is
    at most top, where gap < 0, and lo no lower than the level floor,
    whose gap may still not be positive (brent_root then refuses it)."""
    floor = math.log(_LEVEL_FLOOR)
    lo = hi = min(max(start, floor), top)
    if gap(lo) > 0.0:
        while gap(hi) > 0.0:
            lo, hi, step = hi, min(hi + step, top), 2.0 * step
    else:
        while lo > floor and gap(lo) <= 0.0:
            hi, lo, step = lo, max(lo - step, floor), 2.0 * step
    return lo, hi


def _bracketed_split(marginals, log_tops, total_u, u, log_s, miss):
    """ln s where the reserves that invert the marginals at s add up to
    total_u, and those reserves, by brent_root on ln s over the bracket
    that _level_bracket finds from the last fit's ln s in steps of its
    miss, or from the highest top in steps of 1 where no fit was made.
    The fit's reserves u seed each line's first doubling bracket; the
    marginals' values are kept, so no reserve is evaluated twice."""
    top = max(log_tops)
    # each line's last positive reserve seeds its next doubling bracket
    seeds = [0.0] * len(marginals) if u is None else u.tolist()
    marginals = [functools.lru_cache(maxsize=None)(m) for m in marginals]

    @functools.lru_cache(maxsize=None)
    def reserves_at(log_level):
        reserves = []
        for i, (m, log_top) in enumerate(zip(marginals, log_tops)):
            x = _inverse_marginal(m, log_top, log_level, seeds[i])
            seeds[i] = x or seeds[i]
            reserves.append(x)
        return tuple(reserves)

    gap = lambda log_level: sum(reserves_at(log_level)) - total_u
    # a fit that did not settle missed by more than rounding, unless a
    # level it checked was NaN
    start, step = (log_s, miss) if log_s is not None and miss > 0.0 else (top, 1.0)
    log_level = brent_root(gap, *_level_bracket(gap, start, step, top), _LEVEL_TOL)
    return log_level, np.array(reserves_at(log_level))


def _plateau_end(m, top, hi):
    """The last float below hi at which m, flat at top from 0, is still
    at top, by bisection to adjacent floats."""
    lo = 0.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if m(mid) >= top else (lo, mid)
    return lo


def _marginal_objective(marginals, u):
    """The sum over lines of the integral of m_k from u_k: one tail
    integral over w >= 0 of the sum of m_k(u_k + w)."""
    held = list(zip(marginals, u.tolist()))
    return tail_integral(lambda w: sum(m(x + w) for m, x in held), 0.0)


def method1_generic(marginals, total_u):
    """Marginal-sum allocation for arbitrary decreasing marginal maps.

    marginals are callables u -> distorted ruin probability of one line;
    each must accept an ndarray of reserves as well as a float.  A coarse
    grid check rejects non-monotone marginals up front, and its first
    step h fits each marginal by the exponential of rate ln(m(0)/m(h))/h,
    the Cramer-Lundberg shape of every ruin curve.  Water filling on the
    fits, refitted by chords (_fitted_split), gives the split; an
    exponential marginal settles at the first check.  Where the fits do
    not settle, the threshold s is found by bracketed root finding on
    ln s from the last fit (_bracketed_split), and at each trial s every
    marginal is inverted by bracketed root finding on ln m(u) - ln s,
    both at the level tolerance.
    """
    if not marginals:
        raise DomainError("allocation needs at least one line")
    _check_budget(total_u)
    span = max(1.0, 2.0 * total_u)
    grid = np.linspace(0.0, span, 41)
    values = np.array([m(grid) for m in marginals])
    if np.any(np.diff(values, axis=1) > 1e-12):
        raise DomainError("marginal map is not nonincreasing")
    tops, firsts = values[:, 0].tolist(), values[:, 1].tolist()
    level_max = max(tops)
    if level_max <= 0.0:
        raise DomainError("every marginal vanishes: nothing to allocate")

    if total_u == 0.0:
        zero = np.zeros(len(marginals))
        objective = _marginal_objective(marginals, zero)
        return AllocationResult(zero, [], level_max, objective, 0.0)

    log_tops = [_log(top) for top in tops]
    # a line without level never holds reserve, whatever its rate
    rates = [
        (log_top - _log(first)) / grid[1] if top > 0.0 else 1.0
        for top, first, log_top in zip(tops, firsts, log_tops)
    ]
    u, log_s, miss, settled = _fitted_split(marginals, log_tops, rates, total_u)
    if not settled:
        log_s, u = _bracketed_split(marginals, log_tops, total_u, u, log_s, miss)
        # a solve that ends on a jump, at the top of lines flat there up
        # to an edge, misses U; any split that keeps them on their
        # plateaus is optimal, so they share what the others leave of U
        held = np.abs(np.array(log_tops) - log_s) <= 1e-12 * (1.0 + abs(log_s))
        if held.any() and abs(u.sum() - total_u) > 1e-9 * total_u:
            flat = [(m, t) for m, t, h in zip(marginals, tops, held) if h]
            ends = np.array([_plateau_end(m, t, total_u) for m, t in flat])
            share = (total_u - u[~held].sum()) / ends.sum()
            u[held] = ends * min(max(share, 0.0), 1.0)
    level = math.exp(log_s)
    active = [k for k, x in enumerate(u.tolist()) if x > 0.0]
    levels = [marginals[k](x) for k, x in zip(active, u[active].tolist())]
    spread = (max(levels) - min(levels)) / level if active else 0.0
    objective = _marginal_objective(marginals, u)
    return AllocationResult(u, active, level, objective, float(spread))


def rho2_two_line(line1, line2, u1, u2):
    """Identity-distorted deficit of two pooled independent lines at
    reserves (u1, u2): the sum of the single-line curves minus the
    joint-survival correction."""
    if not (u1 >= 0.0 and u2 >= 0.0):
        raise DomainError("reserves must be nonnegative")
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
    _check_budget(total_u)
    k1 = ruin_constants(line1)
    k2 = ruin_constants(line2)

    def gap(u1):
        r1, r2 = _reductions(k1, k2, u1, total_u - u1)
        return r1 - r2

    g0 = gap(0.0)
    g1 = gap(total_u)
    if g0 <= 0.0:
        u = np.array([0.0, total_u])
    elif g1 >= 0.0:
        u = np.array([total_u, 0.0])
    else:
        # g0 > 0 and g1 < 0 need a1 > 0 and a2 > 0, so both logs exist
        u1 = brent_root(
            lambda x: _log_reduction_gap(k1, k2, x, total_u - x), 0.0, total_u
        )
        u = np.array([u1, total_u - u1])
    red = np.array(_reductions(k1, k2, u[0], u[1]))
    return _certified(u, rho2_two_line(line1, line2, u[0], u[1]), red)


def _certified(u, f, reductions):
    """The aggregate result at the split u with deficit f: threshold is
    the mean marginal reduction on lines holding reserve, kkt_residual
    the largest reduction less their smallest, relative to that mean."""
    active = [int(i) for i in np.flatnonzero(u > 0.0)]
    if not active:
        return AllocationResult(u, [], float(np.max(reductions)), float(f), 0.0)
    level = float(np.mean(reductions[active]))
    resid = float(np.max(reductions) - np.min(reductions[active])) / max(level, 1e-300)
    return AllocationResult(u, active, level, float(f), resid)


def psi_tilde(lines, reserves, v):
    """First-passage probability of the pooled portfolio past the total
    barrier: one minus the product of per-line survivals at u_k + v.

    Accepts a float v, which gives a float, or an ndarray of v.
    """
    if len(reserves) != len(lines):
        raise DomainError("one reserve per line is required")
    if not all(u >= 0.0 for u in reserves):
        raise DomainError("reserves must be nonnegative")
    # summing log survivals keeps the tail accurate far below 1e-16,
    # where one minus a product of survivals rounds to zero; a line
    # below its barrier survives with log 0 = -inf, so the tail is 1
    with np.errstate(divide="ignore"):
        log_survive = sum(
            np.log1p(-ultimate_ruin(line, u + v)) for line, u in zip(lines, reserves)
        )
    tail = -np.expm1(log_survive)
    return tail if np.ndim(tail) else float(tail)


def _pooled_deficit(a, b, g, u, tol, rows=()):
    """The distorted pooled deficit F(u) = integral over v >= 0 of
    g(psi~(u, v)), its gradient in u and its Hessian on the lines flagged
    in rows (NaN elsewhere), from one vectorised quadrature.

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
    _, _, edge = g.primitive_pieces
    start = 0.0
    if edge < math.inf:
        start = _tvar_edge(a.tolist(), b.tolist(), u.tolist(), edge)
    k = a.size
    held = np.flatnonzero(rows)
    n = held.size
    a_, b_, u_ = a[:, None], b[:, None], u[:, None]

    def integrand(v):
        psi = a_ * np.exp(-b_ * (u_ + v))
        log_survive = np.log1p(-psi).sum(axis=0)
        survive = np.exp(log_survive)
        tail = np.minimum(-np.expm1(log_survive), edge)
        q = b_ * psi / (1.0 - psi)
        # a tail that underflows to 0 has q = 0; keep g' finite so that
        # ph's infinite slope there does not make 0 * inf, and g'' too,
        # which grows like x**(p - 2) and so needs the floor's root
        lift = g.slope(np.maximum(tail, _TINY)) * survive
        out = np.empty((1 + k + n * n, v.size))
        out[0] = g(tail)
        np.multiply(-lift, q, out=out[1:k + 1])
        if n:
            bend = g.curvature(np.maximum(tail, _TINY**0.5)) * survive**2 - lift
            qh = q[held]
            np.multiply(bend * qh[:, None], qh, out=out[k + 1:].reshape(n, n, -1))
            # b / (1 - psi) = b + q on the diagonal
            out[k + 1::n + 1] += lift * qh * (b_[held] + qh)
        return out

    out = tail_integral(integrand, start, tol)
    hess = np.full((k, k), np.nan)
    block = out[k + 1:].reshape(n, n)
    if start > 0.0:
        psi = a * np.exp(-b * (u + start))
        p = -b * psi * (1.0 - edge) / (1.0 - psi)
        block = block + g.slope(edge) * np.outer(p[held], p[held]) / p.sum()
    hess[held[:, None], held] = block
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
    _check_budget(total_u)
    if not lines:
        raise DomainError("allocation needs at least one line")
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


def _newton_split(evaluate, u, b):
    """Minimise a convex F over the budget simplex {u >= 0, sum u = U}
    by active-set Newton steps from the split u; returns the optimum.

    evaluate(u, rows) gives F, grad F and a Hessian filled on the rows
    and columns of the lines flagged in rows: all lines at the start,
    then, after a step that is not short, those holding reserve or able
    to enter; entries left NaN keep their last values.  Each step solves
    the bordered KKT system on the lines holding reserve, a ratio test
    lets one leave, and Armijo backtracking follows.  Once the step is
    small the idle line whose reduction most exceeds the multiplier
    enters; below 1e-14 of U plus the decay lengths 1/b with none to
    enter, the split is optimal, so a certified vertex takes one
    evaluation and no solve."""
    k = u.size
    scale = u.sum() + float(np.sum(1.0 / b))
    free = u > 0.0
    f, grad, hess = evaluate(u, np.ones(k, dtype=bool))
    # steps below step_tol are rounding, below reuse_tol they move the
    # Hessian far less than their own error, below enter_tol a line may enter
    step_tol, reuse_tol, enter_tol = 1e-14 * scale, 1e-5 * scale, 1e-2 * scale
    for _ in range(_NEWTON_STEPS):
        idx = np.flatnonzero(free)
        n = idx.size
        if n == 0:
            break
        step = np.zeros(k)
        level = -grad[idx[0]]
        if n > 1:
            kkt = np.ones((n + 1, n + 1))
            kkt[:n, :n] = hess[idx][:, idx]
            kkt[n, n] = 0.0
            # where F is linear in a line (far past the tvar edge) the ridge
            # bounds the step to about 1e9 scales, for the ratio test to cut
            ridge = max(1e-9 * np.abs(grad[idx]).max() / scale, _TINY)
            kkt.flat[: n * (n + 2) : n + 2] += ridge
            sol = np.linalg.solve(kkt, np.append(-grad[idx], 0.0))
            # the solve keeps the budget only up to its conditioning
            step[idx] = sol[:n] - sol[:n].sum() / n
            level = sol[n]
        excess = np.where(free, -np.inf, -grad - level)
        size = np.abs(step).max()
        if size <= enter_tol:
            enter = int(np.argmax(excess))
            if excess[enter] > 1e-11 * level:
                free[enter] = True
                if np.isnan(hess[enter, enter]):
                    f, grad, hess = evaluate(u, free)
                continue
            if size <= step_tol:
                break
        ratios = np.divide(u, -step, out=np.full(k, np.inf), where=step < 0.0)
        leave = int(np.argmin(ratios))
        if ratios[leave] == 0.0:
            # an early entrant shrinks at once: it leaves, and entry waits
            free[leave], enter_tol = False, step_tol
            continue
        t = min(1.0, float(ratios[leave]))
        blocked = t < 1.0
        slope = float(grad @ step)
        rows = free | (excess > 0.0) if size > reuse_tol else ()
        while True:
            cand = u + t * step
            if blocked:
                cand[leave] = 0.0
            fc, gc, hc = evaluate(cand, rows)
            # the allowance lets steps through whose decrease is below
            # the rounding of F near the optimum
            if fc <= f + 1e-4 * t * slope + 1e-13 * abs(f):
                break
            t *= 0.5
            blocked = False
            if t < 1e-12:
                raise ConvergenceError("aggregate line search stalled")
        if blocked:
            free[leave] = False
        u, f, grad = cand, fc, gc
        hess = np.where(np.isnan(hc), hess, hc)
    else:
        raise ConvergenceError(f"aggregate split not settled in {_NEWTON_STEPS} steps")
    return _certified(u, f, -grad)


def method2_generic(lines, g, total_u):
    """Aggregate-minimum split for any number of lines and a concave
    distortion of the pooled curve: _newton_split from _first_split over
    quadrature passes that each give F, its gradient and the Hessian rows
    of the lines that may move (see _pooled_deficit), at a tolerance set
    once, min(abs_tol, rel_tol * D) for the largest single-line deficit D
    at the first split, a lower bound on F there."""
    if not g.concave:
        raise DomainError("aggregate objective needs a concave distortion")
    a, b, u = _first_split(lines, g, total_u)
    floor = DEFAULT_TOL.rel_tol * float(np.max(g.primitive(a * np.exp(-b * u)) / b))
    tol = DEFAULT_TOL
    if 0.0 < floor < tol.abs_tol:
        tol = replace(tol, abs_tol=floor)
    evaluate = lambda u, rows: _pooled_deficit(a, b, g, u, tol, rows)
    return _newton_split(evaluate, u, b)


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


def _exact_pass(a, b, s):
    """F, grad F and the Hessian of F for the pooled deficit under
    g(x) = min(x/s, 1), identity or ph:1 at s = 1 and tvar(s) below, as
    a function of the reserves u and of a shift that scales all three
    by exp(-shift).

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
        # a line without claims gives terms of exactly 0, not 0 * -inf
        log_a = np.maximum(np.log(a), -1e300)
    log_rate = np.log(member @ b)
    scaled_rows = rows * np.append(-b, 1.0)
    af, bf = a.tolist(), b.tolist()

    def evaluate(u, shift=0.0):
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
    evaluate = _exact_pass(a, b, s)
    with np.errstate(divide="ignore"):
        shift = float(np.max(np.log(a) - b * u)) if a.any() else 0.0
    res = _newton_split(lambda u, rows: evaluate(u, shift), u, b)
    unit = math.exp(shift)
    return replace(res, threshold=res.threshold * unit, objective=res.objective * unit)


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


def invariance_check(lines, g, total_u, tol=1e-6):
    """True when distorting every marginal by the same strictly
    increasing g leaves the marginal-sum allocation unchanged.

    The threshold moves through g but the equalised reserves do not.
    """
    if not lines:
        raise DomainError("allocation needs at least one line")
    if not g.concave:
        raise DomainError("invariance needs a strictly increasing distortion")
    base = method1_exponential(AllocationProblem(lines=tuple(lines), total_u=total_u))
    marginals = [
        (lambda u, line=line: g(ultimate_ruin(line, u))) for line in lines
    ]
    distorted = method1_generic(marginals, total_u)
    return bool(np.max(np.abs(base.reserves - distorted.reserves)) <= tol)
