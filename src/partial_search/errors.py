"""Exception hierarchy shared by all modules.

The CLI maps ParameterError/ConstraintError/ResourceLimitError to exit
code 1; UsageError and argparse usage problems exit 2.
"""


class PartialSearchError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(PartialSearchError, ValueError):
    """A value is outside its documented domain (bad n, m, k, ...)."""


class UsageError(ParameterError):
    """Malformed command-line argument text (a range like 3..x)."""


class ConstraintError(PartialSearchError, ValueError):
    """A scheme admissibility constraint is violated (l not a power of
    two for the inner scheme, l not dividing n for block-based schemes,
    unsupported K=2 parameterization, ...)."""


class ResourceLimitError(PartialSearchError):
    """A hard size cap was exceeded (enumeration k_tot, statevector n,
    GRK scan cells)."""


class NumericalError(PartialSearchError):
    """A numeric routine could not complete reliably (failed bracketing,
    probability clamped beyond tolerance)."""
