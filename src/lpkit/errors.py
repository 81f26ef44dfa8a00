"""Exception hierarchy shared by all lpkit modules."""


class LpkitError(Exception):
    """Base class for all lpkit errors."""


class DivisionByZero(LpkitError):
    pass


class FieldMismatch(LpkitError):
    pass


class ShapeMismatch(LpkitError):
    pass


class NotMultiplicityFree(LpkitError):
    pass


class HintInvalid(LpkitError):
    pass


class IndexOutOfRange(LpkitError):
    pass


class EqualIndices(LpkitError):
    pass


class NotAnEigenvalue(LpkitError):
    pass


class CosineVanishes(LpkitError):
    """A cosine u_i(theta) vanishes; the offending index is in args[0]."""

    def __init__(self, index: int):
        super().__init__(index)
        self.index = index


class ZeroTarget(LpkitError):
    pass


class ZeroScale(LpkitError):
    pass


class PreconditionViolated(LpkitError):
    pass


class NotConstant(LpkitError):
    pass


class RouteUnavailable(LpkitError):
    pass


class CharacteristicTooSmall(LpkitError):
    pass


class GenerationFailed(LpkitError):
    pass


class ParseError(LpkitError):
    pass


class NonDecimalScalar(ParseError):
    """A scalar that int() accepts but that is not ASCII [+-]N or [+-]N/M."""


class InternalInconsistency(LpkitError):
    """An invariant that the mathematics guarantees failed: an implementation bug."""
