"""Exception and warning types shared across the library."""


class RmtDiffError(Exception):
    """Base class for all library-specific errors."""


class ZeroMatrix(RmtDiffError):
    """A matrix that must be nonzero is (numerically) zero."""


class NonHermitian(RmtDiffError):
    """Input failed the Hermitian symmetry check."""


class NoConvergence(RmtDiffError):
    """An iterative computation exceeded its iteration budget."""


class DimensionOrder(RmtDiffError, ValueError):
    """A formula requiring n <= m was called with n > m."""


class DomainError(RmtDiffError, ValueError):
    """Argument outside the mathematical domain of the operation."""


class PoleError(RmtDiffError, ZeroDivisionError):
    """Evaluation hit a pole (vanishing denominator) before termination."""


class SizeLimit(RmtDiffError):
    """A combinatorial expansion exceeded its term budget."""


class BoundaryPoint(RmtDiffError, ValueError):
    """Query point lies on (or too close to) a support/orthant boundary."""


class QuadratureFailure(RmtDiffError):
    """Adaptive quadrature could not reach the requested accuracy."""


class UsageError(RmtDiffError, ValueError):
    """A request the caller must change, such as a bin count below 2; the CLI exits 2."""


class Unsupported(RmtDiffError, ValueError):
    """Requested variant is outside the implemented scope."""


class NegativeDensityWarning(UserWarning):
    """A density evaluation returned a significantly negative value."""
