"""Exception types shared across the package."""


class QuadTourError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(QuadTourError):
    pass


class SelfLoop(QuadTourError):
    def __init__(self, u: int):
        self.u = u
        super().__init__(f"self-loop at vertex {u}")


class MissingOrDoubleArc(QuadTourError):
    def __init__(self, u: int, v: int):
        self.u, self.v = u, v
        super().__init__(f"pair ({u},{v}) has zero or two arcs")


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


class NotRegular(QuadTourError):
    pass


class TooSmall(QuadTourError):
    pass


class HypothesisNotSatisfied(QuadTourError):
    """Raised with the unmet hypothesis as its one argument.  A sweep raises
    and catches one for most (instance, verifier) pairs, so the message is
    formatted only when it is shown."""

    @property
    def hypothesis(self) -> str:
        return self.args[0]

    def __str__(self) -> str:
        return f"hypothesis not satisfied: {self.args[0]}"


class MatrixParseError(QuadTourError):
    pass
