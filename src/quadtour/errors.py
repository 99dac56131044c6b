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
    def __init__(self, hypothesis: str):
        self.hypothesis = hypothesis
        super().__init__(f"hypothesis not satisfied: {hypothesis}")


class MatrixParseError(QuadTourError):
    pass
