"""Compound Poisson net-loss model with exponential claim sizes.

A line of business accumulates claims at Poisson rate lam, each claim
exponentially distributed with mean mu, against continuous premium
income at rate c.  The net loss at time s is the claim total minus c*s,
and the quantities of interest here describe the all-time running
maximum of that process: with positive safety loading the ultimate ruin
probability is a * exp(-b * u) in the initial reserve u.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, positive_finite, real


@dataclass(frozen=True)
class ExponentialLine:
    """One line of business: claim rate lam, claim mean mu, premium rate c.

    Requires finite real parameters, not bools, mu > 0 and positive
    safety loading c > lam * mu, else DomainError.  lam = 0 is accepted
    as the degenerate no-claims line.
    """

    lam: float
    mu: float
    c: float

    def __post_init__(self):
        text = "claim rate must be finite and >= 0"
        lam = real(self.lam, lambda x: 0.0 <= x < math.inf, text)
        mu = real(self.mu, positive_finite, "claim mean must be finite and > 0")
        text = f"premium rate must be finite and exceed lam * mu = {lam * mu!r}"
        real(self.c, lambda x: lam * mu < x < math.inf, text)


@dataclass(frozen=True)
class RuinConstants:
    """Parameters of the ultimate ruin curve a * exp(-b * u).

    a is the ruin probability at zero reserve, b the decay rate per unit
    of reserve.
    """

    a: float
    b: float


def _level_and_decay(line):
    a = line.lam * line.mu / line.c
    return a, (1.0 - a) / line.mu


def adjustment_coefficient(line):
    """Decay rate of the ruin probability in the initial reserve."""
    return _level_and_decay(line)[1]


def ruin_constants(line):
    """Level and decay of the ultimate ruin curve for one line."""
    a, b = _level_and_decay(line)
    return RuinConstants(a=a, b=b)


def ultimate_ruin(line, u):
    """P(running maximum ever exceeds u); equals 1 for u < 0.

    Accepts a float, which gives a float, or an ndarray of reserves.  A
    NaN reserve raises DomainError.
    """
    a, b = _level_and_decay(line)
    if type(u) is float:
        if u >= 0.0:
            return a * math.exp(-b * u)
        if u < 0.0:
            return 1.0
        raise DomainError("reserve must not be NaN")
    u = np.asarray(u, dtype=float)
    if u.size and u.min() >= 0.0:
        # every quadrature node lies here, where no reserve needs a mask
        ruin = a * np.exp(-b * u)
    else:
        # NaN fails the test above, so it is looked for only here
        if np.isnan(u).any():
            raise DomainError("reserve must not be NaN")
        ruin = np.where(u < 0.0, 1.0, a * np.exp(-b * np.maximum(u, 0.0)))
    return ruin if ruin.ndim else float(ruin)


def line_from_ruin_constants(a, b, c=1.0):
    """Reconstruct a line with prescribed ruin curve a * exp(-b * u).

    The ruin curve pins down only two of the three line parameters, so
    the premium rate c is a free normalisation (default 1).
    """
    a = real(a, lambda x: 0.0 <= x < 1.0, "ruin probability at zero must be in [0, 1)")
    # the claim mean (1 - a) / b rounds to 0 or inf at extreme decay rates
    text = "decay rate must be > 0 and give a claim mean (1 - a) / b in (0, inf)"
    b = real(b, lambda x: 0.0 < x and positive_finite((1.0 - a) / x), text)
    c = real(c, positive_finite, "premium rate must be finite and > 0")
    mu = (1.0 - a) / b
    lam = a * c / mu
    return ExponentialLine(lam=lam, mu=mu, c=c)
