"""Distortion functions and Choquet integration.

A distortion g maps [0, 1] onto [0, 1], is nondecreasing and fixes the
endpoints.  Integrating a survival curve after passing it through g
gives the distorted expectation of a nonnegative random variable; the
empirical counterpart weights descending order statistics by increments
of g on the uniform grid.  Each kind also gives its primitive
G(y) = integral of g(x)/x over (0, y], a power piece up to an edge and a
log piece beyond it, from which the deficit module builds the closed
form of every distortion on an exponential line, and g leaves 1 at
that edge, so a tail integral of g need only cover the tail beyond it
(edge_reserve), where g(tail) decays as tail**p and the tail's own
log-decrement gives the integral its decay length (decay_length).  This
module is the only one that tells the kinds apart.
"""

import bisect
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TruncationError, real, whole
from .numerics import DEFAULT_TOL, tail_integral

_KINDS = ("identity", "ph", "tvar", "varstep")

_TINY = np.finfo(float).tiny


def _unit_interval(x):
    """x as a float array, refusing any value outside [0, 1]; NaN passes."""
    arr = np.asarray(x, dtype=float)
    # two reductions cost less than two masks, and a NaN fails both tests
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise DomainError("distortion argument outside [0, 1]")
    return arr


@dataclass(frozen=True)
class Distortion:
    """One of four distortion families, selected by kind.

    identity        g(x) = x
    ph (param p)    g(x) = x**p, proportional hazard with p in (0, 1]
    tvar (alpha)    g(x) = min(x / alpha, 1)
    varstep (alpha) g(x) = 0 for x <= alpha, 1 beyond; not concave

    param is kept as a float.  primitive_pieces holds the pieces (s, p,
    edge) of the primitive G(y) = integral of g(x)/x over (0, y], which
    is y**p / (p*s) up to edge and G(edge) + ln(y/edge) beyond: identity
    (1, 1, inf), ph (1, p, inf), tvar (alpha, 1, alpha) and varstep (inf,
    1, alpha), whose power piece is flat at 0.  g(x) = x * G'(x) is
    x**p / s up to edge and 1 beyond.
    """

    kind: str
    param: float = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown distortion kind {self.kind!r}")
        if self.kind == "identity":
            if self.param is not None:
                raise DomainError("identity distortion takes no parameter")
            pieces = (1.0, 1.0, math.inf)
        elif self.kind == "ph":
            text = "ph exponent must be in (0, 1]"
            p = real(self.param, lambda x: 0.0 < x <= 1.0, text)
            object.__setattr__(self, "param", p)
            pieces = (1.0, p, math.inf)
        else:
            text = f"{self.kind} level must be in (0, 1)"
            alpha = real(self.param, lambda x: 0.0 < x < 1.0, text)
            object.__setattr__(self, "param", alpha)
            pieces = (alpha if self.kind == "tvar" else math.inf, 1.0, alpha)
        object.__setattr__(self, "primitive_pieces", pieces)

    @property
    def concave(self):
        return self.kind != "varstep"

    def __call__(self, x):
        """Apply g; accepts a float or an ndarray of values in [0, 1]."""
        if type(x) is float:
            # plain float arithmetic for the scalar root-finding callers;
            # it agrees with the array form, NaN included
            s, p, edge = self.primitive_pieces
            if x < 0.0 or x > 1.0:
                raise DomainError("distortion argument outside [0, 1]")
            return 1.0 if x > edge else x**p / s
        out = self._value(_unit_interval(x))
        return out if out.ndim else float(out)

    def slope(self, x):
        """The derivative g'; accepts a float or an ndarray of values in [0, 1].

        ph gives p * x**(p - 1), which is infinite at 0 when p < 1; tvar
        takes 1/alpha up to and including its kink at alpha and 0 beyond.
        varstep has no derivative to integrate and raises DomainError.
        """
        out = self._slope(_unit_interval(x))
        return out if out.ndim else float(out)

    def curvature(self, x):
        """The second derivative g''; accepts a float or an ndarray of values
        in [0, 1].  ph gives p * (p - 1) * x**(p - 2), -inf at 0 when p < 1;
        the linear pieces of identity and tvar give 0; varstep raises
        DomainError, as for slope."""
        out = self._curvature(_unit_interval(x))
        return out if out.ndim else float(out)

    def derivatives(self, x):
        """g, g' and g'' on an ndarray of values in [0, 1], from one range
        check.  ph's g' and g'' are infinite at 0 when p < 1, so g' is
        taken at max(x, tiny) and g'' at max(x, sqrt(tiny)), tiny the
        least normal float, where both are finite for every p in (0, 1].
        varstep raises DomainError, as for slope."""
        arr = _unit_interval(x)
        return (
            self._value(arr),
            self._slope(np.maximum(arr, _TINY)),
            self._curvature(np.maximum(arr, _TINY**0.5)),
        )

    # the array forms, on arguments already checked to lie in [0, 1]

    def _value(self, arr):
        s, p, edge = self.primitive_pieces
        if edge == math.inf:
            # no argument lies beyond an infinite edge
            return arr**p / s
        return np.where(arr > edge, 1.0, arr**p / s)

    def _slope(self, arr):
        if not self.concave:
            raise DomainError("varstep distortion has no slope")
        s, p, edge = self.primitive_pieces
        return np.where(arr > edge, 0.0, p * arr ** (p - 1.0) / s)

    def _curvature(self, arr):
        if not self.concave:
            raise DomainError("varstep distortion has no curvature")
        s, p, _ = self.primitive_pieces
        # only p = 1 comes with an edge, and x**(p - 2) is infinite at 0
        return p * (p - 1.0) * arr ** (p - 2.0) / s if p < 1.0 else 0.0 * arr

    def primitive(self, y):
        """G(y) = integral of g(x)/x over (0, y]; accepts a float or an
        ndarray of values in [0, 1].  On a ruin curve psi, x = psi(v) turns
        the deficit into D(u) = G(psi(u)) / b for u >= 0."""
        arr = _unit_interval(y)
        s, p, edge = self.primitive_pieces
        out = np.minimum(arr, edge) ** p / (p * s)
        if edge < math.inf:
            out = out + np.log(np.maximum(arr, edge) / edge)
        return out if out.ndim else float(out)

    def label(self):
        """Short tag used in CSV column names and config round-trips."""
        if self.kind == "identity":
            return "identity"
        return f"{self.kind}:{self.param:g}"


def identity():
    return Distortion("identity")


def proportional_hazard(p):
    return Distortion("ph", p)


def tvar(alpha):
    return Distortion("tvar", alpha)


def var_step(alpha):
    return Distortion("varstep", alpha)


def parse_distortion(spec):
    """Parse 'identity', 'ph:<p>', 'tvar:<alpha>' or 'varstep:<alpha>'."""
    text = spec.strip()
    if text == "identity":
        return identity()
    kind, sep, arg = text.partition(":")
    if not sep or kind not in ("ph", "tvar", "varstep"):
        raise ValueError(f"cannot parse distortion spec {spec!r}")
    try:
        value = float(arg)
    except ValueError:
        raise ValueError(f"cannot parse distortion spec {spec!r}") from None
    return Distortion(kind, value)


# parts into which each call of the tail cuts edge_reserve's bracket
_EDGE_CUTS = 33
_EDGE_STEPS = np.arange(_EDGE_CUTS + 1)
# offsets in floats from the log-linear root that edge_reserve probes: the
# nearest 8 on either side, then steps of _EDGE_CUTS out to 272, so that a
# crossing within 272 floats of the root is one cut from adjacent ends, then
# doubling steps, which leave a crossing further out inside a factor 2
_EDGE_REACH = [
    *range(1, 9),
    *range(8 + _EDGE_CUTS, 273, _EDGE_CUTS),
    *(272 << k for k in range(1, 41)),
]
_EDGE_PROBE = [-k for k in reversed(_EDGE_REACH)] + [0] + _EDGE_REACH
_EDGE_OFFSETS = np.array(_EDGE_PROBE)
# a nonnegative float's bit pattern, which orders as the float does
_AS_FLOAT, _AS_INT = struct.Struct("<d"), struct.Struct("<q")


# the ends 0, 1, 3, ..., 2**n - 1 of tail_integral's first n = max_iter
# panels under DEFAULT_TOL: a read-only array, and its values as floats
# and as bit patterns
_PANEL_ENDS = np.exp2(np.arange(DEFAULT_TOL.max_iter + 1.0)) - 1.0
_PANEL_ENDS.flags.writeable = False
_END_VALUES = _PANEL_ENDS.tolist()
_END_BITS = _PANEL_ENDS.view(np.int64).tolist()


def _log_ratio(x, y):
    """ln(x / y) of floats, -inf where x / y is 0 or NaN."""
    ratio = x / y
    return math.log(ratio) if ratio > 0.0 else -math.inf


def edge_reserve(g, tail):
    """The least v >= 0 with tail(v) <= edge, the edge of g's primitive:
    alpha for tvar and varstep, where g(tail) leaves 1 with a kink or a
    jump.  Without an edge (identity, ph) it is 0, and tail is not called.
    g(tail) is 1 below v, so an integral of g(tail) over [u, inf) with
    u <= v is v - u plus the integral from v, over which g is smooth.

    tail is nonincreasing and maps an ndarray of v to one value per
    point.  One call brackets v among the ends 0, 1, 3, ..., 2**k - 1 of
    tail_integral's first DEFAULT_TOL.max_iter panels, an array built
    once at import and passed read-only.  The second probes the root of
    the line through ln tail at the bracket's ends, where an exponential
    tail meets the edge, and the floats next to it; on an exponential
    tail they hold the crossing, and the search ends there.  Otherwise
    the probe narrows the bracket, and each further call cuts it into
    _EDGE_CUTS parts, evenly in the bit patterns of its floats, until its
    ends are adjacent floats.  The end returned has tail(v) <= edge, so
    no sliver where g = 1 is left beyond it; values past the first panel
    end at or below the edge, NaN included, are not used.  A tail above
    the edge at every panel end raises TruncationError, as tail_integral
    would, with the integral of g = 1 up to the last one as its partial
    value.
    """
    edge = g.primitive_pieces[2]
    if edge == math.inf:
        return 0.0
    values = np.asarray(tail(_PANEL_ENDS))
    j = int((values <= edge).argmax())
    if j == 0:
        # the first end at or below the edge, or none is
        if values[0] <= edge:
            return 0.0
        raise TruncationError(
            f"tail stays above the distortion's edge {edge} up to {_END_VALUES[-1]:g}",
            _END_VALUES[-1],
        )
    v_lo, v_hi = _END_VALUES[j - 1], _END_VALUES[j]
    t_lo, t_hi = values[j - 1:j + 1].tolist()
    root = v_lo + _log_ratio(edge, t_lo) / _log_ratio(t_hi, t_lo) * (v_hi - v_lo)
    if not v_lo <= root <= v_hi:
        # NaN, or a tail that is not monotone
        root = v_lo
    # the probe's offsets inside the bracket, between its ends
    lo, hi = _END_BITS[j - 1], _END_BITS[j]
    mid = _AS_INT.unpack(_AS_FLOAT.pack(root))[0]
    first = bisect.bisect_right(_EDGE_PROBE, lo - mid)
    last = bisect.bisect_left(_EDGE_PROBE, hi - mid)
    cuts = np.empty(last - first + 2, dtype=np.int64)
    cuts[0], cuts[-1] = lo, hi
    np.add(_EDGE_OFFSETS[first:last], mid, out=cuts[1:-1])
    while True:
        points = cuts.view(np.float64)
        j = int((np.asarray(tail(points)) <= edge).argmax())
        lo, hi = cuts.item(j - 1), cuts.item(j)
        if hi - lo <= 1:
            return points.item(j)
        # a step rounded up puts the last cut on hi or beyond, capped to hi
        cuts = np.minimum(lo - (lo - hi) // _EDGE_CUTS * _EDGE_STEPS, hi)


def decay_length(g, tail, v):
    """A decay length of g(tail) past v for tail_integral's one-call
    stage: 1/(p r), with r = ln(tail(v)/tail(v + 1)) from one call of
    tail and p the power of g's primitive, as g(tail) decays as tail**p
    past the edge; None where r is not finite and positive, a tail that
    is flat or underflows there, so that the integral runs on panels."""
    at, after = np.asarray(tail(np.array([v, v + 1.0]))).tolist()
    rate = g.primitive_pieces[1] * math.log(at / after) if 0.0 < after < at else 0.0
    length = 1.0 / rate if rate > 0.0 else math.inf
    return length if 0.0 < length < math.inf else None


def choquet_tail(g, tail):
    """Distorted expectation of a nonnegative variable from its survival
    function: integral of g(tail(x)) over [0, inf), which is v plus the
    integral from v = edge_reserve(g, tail).  That integral passes
    tail_integral the decay length that tail's own values give at v
    (decay_length)."""
    v = edge_reserve(g, tail)
    scale = decay_length(g, tail, v)
    return v + tail_integral(lambda x: g(tail(x)), v, DEFAULT_TOL, scale)


def choquet_weights(g, n):
    """Rank weights g(i/n) - g((i-1)/n) for descending order statistics."""
    grid = g(np.arange(n + 1) / n)
    return np.diff(grid)


def sample_array(samples):
    """samples as a float array, refusing one that is empty, not 1-d,
    or holds a negative or non-finite value."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise DomainError("samples must be a nonempty 1-d collection")
    if np.any(x < 0.0) or not np.all(np.isfinite(x)):
        raise DomainError("samples must be finite and nonnegative")
    return x


def choquet_empirical(g, samples):
    """Empirical distorted expectation of a nonnegative sample set.

    Sorts descending and weights the order statistics by increments of g
    on the uniform grid; with the identity distortion this reduces to
    the sample mean exactly.
    """
    x = sample_array(samples)
    ordered = np.sort(x)[::-1]
    return float(choquet_weights(g, x.size) @ ordered)


def choquet_se(g, samples, n_boot=50, seed=0):
    """Bootstrap standard error of choquet_empirical on one sample set,
    from n_boot >= 2 resamples."""
    n_boot = whole(n_boot, lambda x: x >= 2, "bootstrap needs an integer n_boot >= 2")
    x = np.asarray(samples, dtype=float)
    rng = np.random.default_rng(seed)
    reps = np.empty(n_boot)
    for i in range(n_boot):
        reps[i] = choquet_empirical(g, rng.choice(x, size=x.size, replace=True))
    return float(np.std(reps, ddof=1))
