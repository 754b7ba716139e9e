"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Raised when run parameters, model data, or a config file are invalid.

    Carries a human-readable message naming the offending key or value.
    """


class SolverError(RuntimeError):
    """Raised when a linear solve fails to reach the requested residual or
    its matrix has an exactly singular factor.

    Attributes:
        step: Time-step index at which the failure occurred, or None when the
            failure is not tied to a particular step.
        residual: Relative residual achieved before giving up, or NaN when a
            non-finite value or a singular factor was detected.
        block: Label of the failing operator (phase, heat, nutrient or
            terminal), or None when no operator was involved.
    """

    def __init__(self, message, step=None, residual=None, block=None):
        super().__init__(message)
        self.step = step
        self.residual = residual
        self.block = block


class OptimizerError(RuntimeError):
    """Raised when the optimization loop cannot make a valid move.

    Distinct from ordinary stopping: hitting max_iters or the minimum step
    size is reported in the result, not raised.
    """
