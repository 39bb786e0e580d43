"""Exception types shared across the library."""


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


class NotRankMDegenerate(NogoSimError):
    """Product eigenvalue grid is not constant along system indices."""


class NonDecomposable(NogoSimError):
    """Operator could not be written as a sum of Hermitian product terms."""


class ConfigError(NogoSimError):
    """Scenario configuration failed schema validation."""
