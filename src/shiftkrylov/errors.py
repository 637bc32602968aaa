"""Exception types raised across the package.

Every error raised by shiftkrylov derives from :class:`ShiftKrylovError`,
so callers can catch one base class at an API boundary.  Conditions that
are expected outcomes of an iteration (stagnation, a shift exhausting its
budget, a shift retired at a singular reduced system) are reported
through result objects instead of exceptions; only conditions that
invalidate the requested operation raise.

Sizes and counts (grid sizes, matrix orders, step counts, budgets) are
checked by one helper, :func:`_count`, which raises the calling site's
error class for any value that is not an integer at or above the site's
minimum, NaN, infinities, None and strings included.  A bad size is
therefore a package error, never a bare ``ValueError`` or ``TypeError``.
"""

__all__ = [
    "ShiftKrylovError",
    "DimensionMismatch",
    "IndexOutOfRange",
    "InvalidDimensions",
    "InvalidGrid",
    "ParseError",
    "UnsupportedFormat",
    "ZeroStartVector",
    "NonFiniteInput",
    "SingularReducedSystem",
    "NotConverged",
    "DuplicateNodes",
    "IllConditionedEigenbasis",
]


class ShiftKrylovError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(ShiftKrylovError):
    """Operands have incompatible shapes."""


class IndexOutOfRange(ShiftKrylovError):
    """A row or column index lies outside the declared matrix shape."""


class InvalidDimensions(ShiftKrylovError):
    """A matrix or vector was declared with non-positive dimensions."""


class InvalidGrid(ShiftKrylovError):
    """A grid parameter of a problem generator is out of range."""


class ParseError(ShiftKrylovError):
    """A file is malformed.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message, lineno=None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


class UnsupportedFormat(ShiftKrylovError):
    """The file is well formed but uses a variant this package does not read."""


class ZeroStartVector(ShiftKrylovError):
    """The start vector (or right-hand side) is identically zero."""


class NonFiniteInput(ShiftKrylovError):
    """An operand holds a NaN or an infinity.

    The basis processes check their start vector, and the restarted
    solvers their right-hand side, initial guess, shifts and operator
    norm, at entry, before any product, so a non-finite operand is never
    reported as convergence or breakdown.
    """


class SingularReducedSystem(ShiftKrylovError):
    """A reduced Hessenberg system is numerically singular.

    Raised by the reduced solves when a diagonal entry of the triangular
    QR factor is at or below roundoff times the matrix norm.  ``singular``
    masks the singular systems of a stack and ``solution`` holds the
    others' solutions; the restarted solvers retire the masked shifts.
    """

    def __init__(self, message, singular=None, solution=None):
        super().__init__(message)
        self.singular, self.solution = singular, solution


class NotConverged(ShiftKrylovError):
    """An inner solve did not reach its tolerance within budget.

    ``shifts`` lists the shift values that failed.
    """

    def __init__(self, message, shifts=()):
        super().__init__(message)
        self.shifts = list(shifts)


class DuplicateNodes(ShiftKrylovError):
    """A quadrature rule repeats a node, so its shifted systems coincide."""


class IllConditionedEigenbasis(ShiftKrylovError):
    """The dense reference factorization has an eigenvector basis too
    ill-conditioned to trust as an oracle."""


def _count(value, low, error, message):
    """``value`` as an int if it equals an integer ``>= low``, else raise ``error(message)``."""
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        raise error(message) from None
    if count != value or count < low:
        raise error(message)
    return count
