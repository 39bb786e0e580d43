"""Exception types shared across the library, and the number checks that raise ``ConfigError``.

The checks live here, beside the error they raise, because every subcommand
loads this module: the CLI validates its tolerance flags and
``NOGO_DEFAULT_TOL`` with them without loading ``config``.
"""

import math


class NogoSimError(Exception):
    """Base class for all library errors."""


class NonHermitian(NogoSimError):
    """Input operator is not Hermitian within tolerance."""


class NoConvergence(NogoSimError):
    """Iterative eigensolver exhausted its sweep budget."""


class DimensionMismatch(NogoSimError):
    """Operator or state dimensions are incompatible."""


class ZeroProbability(NogoSimError):
    """Conditioning event has probability at or below the cutoff."""


class MissingPostselection(NogoSimError):
    """Scenario carries no postselection state but one is required."""


class OrthogonalPostselection(NogoSimError):
    """Pre- and postselected states are orthogonal within the cutoff."""


class NonDecomposable(NogoSimError):
    """Operator could not be written as a sum of Hermitian product terms."""


class ConfigError(NogoSimError):
    """Scenario configuration failed schema validation."""


def _require_number(obj, where: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {type(obj).__name__}")
    try:
        value = float(obj)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return value


def require_tolerance(obj, where: str) -> float:
    """A finite, non-negative number; a NaN tolerance would let every ``x > tol`` gate pass."""
    value = _require_number(obj, where)
    if value < 0.0:
        raise ConfigError(f"{where}: expected a non-negative tolerance, got {value!r}")
    return value
