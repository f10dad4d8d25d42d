"""Exception types shared across the package.

Every error raised on a violated precondition is a subclass of
:class:`CStarCatError`, so callers can catch the whole family at once.
"""


class CStarCatError(Exception):
    """Base class for all errors raised by this package."""


# --- numerical substrate ---------------------------------------------------

class InvalidMatrix(CStarCatError):
    """Matrix has non-finite entries or a malformed shape."""


class NotHermitian(CStarCatError):
    """Functional calculus applied to a non-Hermitian operand."""


class SingularOperand(CStarCatError):
    """Operand has an eigenvalue or singular value below the tolerance floor."""


class ShapeMismatch(CStarCatError):
    """Operands do not have compatible shapes."""


class MissingShape(CStarCatError):
    """An empty span was requested without an ambient shape."""


class NotSquare(CStarCatError):
    """A square ambient shape is required."""


# --- presentations ----------------------------------------------------------

class InvalidQuiver(CStarCatError):
    """Quiver references undeclared objects or repeats arrow names."""


class NotParallel(CStarCatError):
    """Two functors (or relation sides) do not share source and target."""


class RelationFailed(CStarCatError):
    """A representation violates one of the presentation's relations."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class BoundFailed(CStarCatError):
    """A representation violates one of the presentation's norm bounds."""

    def __init__(self, message, arrow=None, value=None):
        super().__init__(message)
        self.arrow = arrow
        self.value = value


class InvalidCategory(CStarCatError):
    """A (C*- or plain finite) category fails its structural checks."""


# --- matrix categories ------------------------------------------------------

class InvalidFunctor(CStarCatError):
    """Functor data violates the *-functor laws."""


class NotInvertible(CStarCatError):
    """An invertible arrow was required (e.g. equal source/target dimensions)."""


# --- groupoids and simplicial sets -------------------------------------------

class InvalidGroupoid(CStarCatError):
    """Groupoid tables fail associativity, inverse or identity checks."""


class NotUnitary(CStarCatError):
    """An arrow image that must be unitary is not."""


class InvalidSimplicialSet(CStarCatError):
    """Face data violates the simplicial identities or references unknowns."""


class NotFiniteWithinBound(CStarCatError):
    """Coset enumeration exceeded its budget without completing."""


# --- model structure ----------------------------------------------------------

class SquareMismatch(CStarCatError):
    """A lifting problem's data does not form a commuting square."""


class NotAWeakEquivalence(CStarCatError):
    """A quasi-inverse was requested for a functor without a YES verdict."""


class LiftObstruction(CStarCatError):
    """No unitary lift exists at some object, so the right leg of the
    lifting square is not a fibration there."""

    def __init__(self, message, obj=None):
        super().__init__(message)
        self.obj = obj


class PreconditionFailed(CStarCatError):
    """A lifting routine was called outside its (cof, fib) hypotheses."""


# --- CLI ----------------------------------------------------------------------

class InvalidParams(CStarCatError):
    """Command parameters are out of their documented bounds."""


class MalformedInput(InvalidParams):
    """An input file has a malformed key or matrix entry."""
