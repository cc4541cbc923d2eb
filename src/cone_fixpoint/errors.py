"""Exception types shared across the package."""


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
