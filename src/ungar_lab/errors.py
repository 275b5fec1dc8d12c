"""Exception hierarchy.

Errors fall into three families, which the CLI maps onto exit codes:
configuration problems (exit 2), exceeded enumeration caps (exit 3), and
violated internal invariants (exit 4, these always indicate a bug).
"""


class UngarLabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(UngarLabError, ValueError):
    """Invalid user-supplied configuration."""


class DomainError(UngarLabError, ValueError):
    """Numeric argument outside the domain of a formula."""


class CapExceeded(UngarLabError):
    """An explicit enumeration cap was hit."""


class StateExplosion(CapExceeded):
    """Too many states to enumerate exactly."""


class CycleDetected(UngarLabError, ValueError):
    """The supplied cover relation contains a cycle."""


class RedundantCover(UngarLabError, ValueError):
    """A cover edge is implied by transitivity."""


class InvalidSelection(UngarLabError, ValueError):
    """A selected move site is not available in the current state."""


class Not312Avoiding(UngarLabError, ValueError):
    """A permutation required to avoid the pattern 312 does not."""


class NotReached(UngarLabError):
    """A trajectory was truncated before the queried event occurred."""


class SeriesTruncationError(UngarLabError):
    """A series could not be truncated within the requested tolerance."""


class InvariantViolation(UngarLabError):
    """An internal consistency check failed; signals a bug."""


class CouplingViolation(InvariantViolation):
    """Chain absorption disagreed with the percolation identity."""


class BoundViolation(InvariantViolation):
    """A proved bound failed on concrete data."""


class SingularSystem(InvariantViolation):
    """The absorbing-chain linear system was singular (impossible for p > 0)."""
