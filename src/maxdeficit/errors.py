"""Exception types shared across the package, and the one rule for scalar
arguments.

Every scalar argument of an export is checked by real or whole: a real
number, or an integer, that is not a bool and lies in the export's
range, else a DomainError whose text names the argument and shows the
value given.  A string, None or an array is refused, never converted;
NaN fails every range that compares.

The CLI maps these onto process exit codes: domain problems exit with 3,
convergence problems with 4.  Anything argparse rejects exits with 2.
"""

import math
import numbers


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class BracketingError(DomainError):
    """A root bracket does not straddle a sign change."""


class ConvergenceError(RuntimeError):
    """An iteration budget was exhausted before reaching tolerance."""


class TruncationError(ConvergenceError):
    """A semi-infinite integral failed to settle within the panel budget.

    Carries the accumulated value so callers can inspect how far it got.
    """

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


def real(x, ok, text):
    """float(x) where x is a real number, not a bool, and ok holds for
    float(x), else DomainError(f"{text}, got {x!r}").  The type tests
    come after a plain float's, as that is nearly every call."""
    if type(x) is not float and isinstance(x, numbers.Real) and type(x) is not bool:
        try:
            x = float(x)
        except OverflowError:
            pass  # an int past the float range, refused below
    if type(x) is float and ok(x):
        return x
    raise DomainError(f"{text}, got {x!r}")


def whole(x, ok, text):
    """int(x) where x is an integer, not a bool, and ok holds for int(x),
    else DomainError(f"{text}, got {x!r}")."""
    if type(x) is not int and isinstance(x, numbers.Integral) and type(x) is not bool:
        x = int(x)
    if type(x) is int and ok(x):
        return x
    raise DomainError(f"{text}, got {x!r}")


def positive_finite(x):
    """The range of most scalar arguments, as an ok for real: 0 < x < inf."""
    return 0.0 < x < math.inf


def not_nan(x):
    """The range of a reserve level, as an ok for real: any x but NaN."""
    return not math.isnan(x)
