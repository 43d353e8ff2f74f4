"""Exception types shared across the package."""


class HypertreeLabError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(HypertreeLabError):
    """A simplex has the wrong dimension for the operation."""


class VertexOutOfRange(HypertreeLabError):
    """A vertex id falls outside the declared ground set."""


class FaceNotInComplex(HypertreeLabError):
    """The named face does not belong to the complex."""


class NotSandwiched(HypertreeLabError):
    """The complex is not contained between the required skeleta."""


class NotPure(HypertreeLabError):
    """A maximal face has smaller dimension than the top dimension."""


class TooLarge(HypertreeLabError):
    """The requested dense computation exceeds the supported size."""


class ParameterOutOfRange(HypertreeLabError):
    """A numeric parameter violates its documented domain."""


class NotPrime(HypertreeLabError):
    """A parameter that must be prime is not."""


class ParameterMismatch(HypertreeLabError):
    """Parameters are individually valid but mutually inconsistent."""


class InvariantViolation(HypertreeLabError):
    """A mathematically guaranteed property failed to hold.

    Raising this on honest input means the implementation is wrong, never
    that the input was unlucky.
    """


class UnrepresentableComplex(HypertreeLabError):
    """The complex cannot be expressed in the requested file format."""


class ParseError(HypertreeLabError):
    """Malformed complex file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
