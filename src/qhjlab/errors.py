"""Exception types raised across the package.

Every class derives from :class:`QhjLabError` so callers can catch the whole
family; most also derive from ``ValueError``/``RuntimeError`` to stay friendly
to generic handlers.
"""


class QhjLabError(Exception):
    """Base class for all package-specific errors."""


class GridSizeError(QhjLabError, ValueError):
    """Grid has too few samples for the requested stencil or construction."""


class SingularFieldError(QhjLabError, ValueError):
    """A field (or its derivative) vanishes where the operation needs it nonzero."""

    def __init__(self, message, indices=None):
        super().__init__(message)
        self.indices = tuple(indices) if indices is not None else ()


class CapabilityError(QhjLabError, ValueError):
    """Unsupported (potential, energy) combination for an analytic construction."""


class DegeneracyError(QhjLabError, ValueError):
    """Wronskian is zero: the two solutions are not linearly independent."""


class AccuracyError(QhjLabError, RuntimeError):
    """A computed object failed its construction-time residual tolerance."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class ContractError(QhjLabError, ValueError):
    """Input object violates the contract of the operation (wrong pair type, etc.)."""


class DomainError(QhjLabError, ValueError):
    """Coordinate/window/value outside the valid domain (turning points included)."""


class TruncationError(QhjLabError, ValueError):
    """Requested expansion order exceeds what the grid can support."""


class StatisticsError(QhjLabError, ValueError):
    """Not enough data points for the requested fit."""


class ConfigError(QhjLabError, ValueError):
    """Scenario configuration failed to parse or validate."""
