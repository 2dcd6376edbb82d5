"""Exception types shared across the package."""


class LfsynthError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(LfsynthError, ValueError):
    """Matrix or system dimensions are inconsistent."""


class DomainError(LfsynthError, ValueError):
    """An input violates a mathematical precondition (NaN entries, asymmetry, ...)."""


class NumericalError(LfsynthError, RuntimeError):
    """An iterative numerical routine failed to converge."""


class SingularMatrixError(NumericalError):
    """A linear solve hit a singular or numerically singular matrix."""


class IllPosedLFTError(SingularMatrixError):
    """A linear fractional interconnection has a singular algebraic loop.

    ``grid_index`` is the first ill-posed parameter-grid point when a
    certificate (synth.objective) raises the error, else it is None; stacked
    passes report ill-posed points in a mask instead of raising.
    """

    def __init__(self, message, grid_index=None):
        super().__init__(message)
        self.grid_index = grid_index


class UnstableError(LfsynthError, ValueError):
    """An operation that requires a stable system received an unstable one."""


class StabilizationFailedError(LfsynthError, RuntimeError):
    """The stabilization phase exhausted its budget without closing all loops stably."""


class ParseError(LfsynthError, ValueError):
    """A text artifact (state-space file, controller file, config) is malformed."""


class ConfigError(ParseError):
    """A run configuration is missing keys or carries invalid values."""
