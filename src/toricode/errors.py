"""Exception types shared across the package.

Everything raised on purpose derives from ToricodeError so callers can
catch one base class at the CLI boundary.
"""


class ToricodeError(Exception):
    """Base class for all errors raised by this package."""


class NonPrimeCharacteristic(ToricodeError):
    """Field characteristic must be a prime number."""


class ReducibleModulus(ToricodeError):
    """The supplied modulus polynomial factors over the prime field."""


class DegreeMismatch(ToricodeError):
    """Modulus degree does not match the requested extension degree."""


class DivisionByZero(ToricodeError):
    """Division or inversion of the zero field element."""


class TooLarge(ToricodeError):
    """Requested field order exceeds the supported range."""


class FieldTooSmall(ToricodeError):
    """The polygon does not fit in the torus of the requested field."""


class PolygonTooLargeForField(FieldTooSmall):
    """Alias kept separate so messages can be precise about which check fired."""


class EmptyInput(ToricodeError):
    """An operation was given no points, no rows, or no summands."""


class CoordinateOverflow(ToricodeError):
    """Lattice coordinates left the supported exact-arithmetic range."""


class DegeneratePolygon(ToricodeError):
    """An operation required full-dimensional input but got a point or segment."""


class NotApplicable(ToricodeError):
    """A bound or formula was asked for outside its hypotheses."""


class HypothesisViolated(NotApplicable):
    """Explicit parameter constraints of a closed formula were violated."""


class NoDecomposition(ToricodeError):
    """No Minkowski decomposition with the requested properties exists."""


class InvariantViolation(ToricodeError):
    """Internal consistency check failed, e.g. a lower bound above an upper bound."""


class BudgetExceeded(ToricodeError):
    """An exhaustive search hit its node budget before finishing."""


class SupportOutsidePolygon(ToricodeError):
    """A section uses a monomial whose exponent lies outside the polygon."""


class DeadlineExceeded(ToricodeError):
    """A long-running search ran out of wall-clock time."""
