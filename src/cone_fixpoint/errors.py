"""Exception types shared across the package, and the integer check of
every count and seed argument."""

import operator


class ConeFixpointError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(ConeFixpointError, ValueError):
    """Malformed numerical input (NaN, infinity, wrong shape)."""


class DimensionMismatchError(InvalidInputError):
    """Operands live in ambient spaces of different dimension."""


class InvalidSpecError(ConeFixpointError, ValueError):
    """A contraction spec violates its structural constraints."""


class NotAContractionError(InvalidSpecError):
    """The family's true Lipschitz factor exceeds the declared one."""

    def __init__(self, message: str, true_factor: float):
        super().__init__(message)
        self.true_factor = true_factor


class InvalidWitnessError(ConeFixpointError, ValueError):
    """A supplied witness is not a member of the bounding set."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class UnsupportedInstanceError(ConeFixpointError, ValueError):
    """No reference fixed point can be computed for this instance."""


class ProblemFileError(ConeFixpointError, ValueError):
    """A problem description file is malformed."""


def check_integer(name: str, v):
    """Refuse a count or seed that is not an integer (``operator.index``
    accepts Python and numpy integers only)."""
    try:
        operator.index(v)
    except TypeError:
        raise InvalidInputError(f"{name} must be an integer, got {v!r}") from None
