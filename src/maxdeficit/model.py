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

from .errors import DomainError


@dataclass(frozen=True)
class ExponentialLine:
    """One line of business: claim rate lam, claim mean mu, premium rate c.

    Requires finite parameters, mu > 0 and positive safety loading
    c > lam * mu.  lam = 0 is accepted as the degenerate no-claims line.
    """

    lam: float
    mu: float
    c: float

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.lam, self.mu, self.c)):
            raise DomainError(
                f"line parameters must be finite, got {self.lam}, {self.mu}, {self.c}"
            )
        if self.lam < 0.0:
            raise DomainError(f"claim rate must be >= 0, got {self.lam}")
        if self.mu <= 0.0:
            raise DomainError(f"claim mean must be > 0, got {self.mu}")
        if self.c <= self.lam * self.mu:
            raise DomainError(
                f"premium rate {self.c} does not exceed expected claims "
                f"per unit time {self.lam * self.mu}"
            )


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

    Accepts a float, which gives a float, or an ndarray of reserves.
    """
    a, b = _level_and_decay(line)
    if type(u) is float:
        return 1.0 if u < 0.0 else a * math.exp(-b * u)
    u = np.asarray(u, dtype=float)
    ruin = np.where(u < 0.0, 1.0, a * np.exp(-b * np.maximum(u, 0.0)))
    return ruin if ruin.ndim else float(ruin)


def line_from_ruin_constants(a, b, c=1.0):
    """Reconstruct a line with prescribed ruin curve a * exp(-b * u).

    The ruin curve pins down only two of the three line parameters, so
    the premium rate c is a free normalisation (default 1).
    """
    if not 0.0 <= a < 1.0:
        raise DomainError(f"zero-reserve ruin probability must be in [0, 1), got {a}")
    if b <= 0.0:
        raise DomainError(f"decay rate must be > 0, got {b}")
    if c <= 0.0:
        raise DomainError(f"premium rate must be > 0, got {c}")
    mu = (1.0 - a) / b
    lam = a * c / mu
    return ExponentialLine(lam=lam, mu=mu, c=c)
