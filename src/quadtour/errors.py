"""Exception types shared across the package.

An error's data is its `args`.  A class with a `template` is raised with the
template's fields, `str()` fills the template in, and `u`, `v` and
`hypothesis` read `args`; every other class is raised with its message.  So a
pickle round trip keeps the type, the data and the message.
"""


class QuadTourError(Exception):
    """Base class for all library errors."""

    template = None

    def __str__(self) -> str:
        if self.template is None:
            return super().__str__()
        return self.template.format(*self.args)


def _arg(i: int) -> property:
    return property(lambda self: self.args[i])


class DimensionMismatch(QuadTourError):
    pass


class SelfLoop(QuadTourError):
    template = "self-loop at vertex {}"
    u = _arg(0)


class MissingOrDoubleArc(QuadTourError):
    template = "pair ({},{}) has zero or two arcs"
    u, v = _arg(0), _arg(1)


class InvariantViolation(QuadTourError):
    """A structural certificate failed; the rows are not a tournament."""


class VertexOutOfRange(QuadTourError):
    pass


class EmptyVertexSet(QuadTourError):
    pass


class SizeLimitExceeded(QuadTourError):
    pass


class InvalidSymbol(QuadTourError):
    pass


class InvalidSeed(QuadTourError, ValueError):
    """A random seed outside [0, 2**64); also a ValueError for older callers."""


class InvalidSide(QuadTourError, ValueError):
    """A quadrangularity side other than out, in or both; also a ValueError."""


class EvenOrTooSmall(QuadTourError):
    pass


class NotPrime(QuadTourError):
    pass


class WrongResidueClass(QuadTourError):
    pass


class NotSquare(QuadTourError):
    pass


class UnsupportedK(QuadTourError):
    pass


class TooSmall(QuadTourError):
    pass


class HypothesisNotSatisfied(QuadTourError):
    """Raised with the unmet hypothesis as its one argument.  A sweep raises
    and catches one for most (instance, verifier) pairs, so it has no
    `__init__` of its own."""

    template = "hypothesis not satisfied: {}"
    hypothesis = _arg(0)


class NotRegular(HypothesisNotSatisfied):
    """The regular rule's hypothesis is unmet."""


class MatrixParseError(QuadTourError):
    pass
