"""Exception types shared across the package, and the decorator that
names the sweep a solver failure came from."""

import functools

__all__ = ["ConfigurationError", "SolverError", "OptimizerError"]


class ConfigurationError(ValueError):
    """Raised when run parameters, model data, or a config file are invalid.

    Carries a human-readable message naming the offending key or value.
    """


class SolverError(RuntimeError):
    """Raised by a block solve that meets a non-finite value or has an
    exactly singular factor.

    Attributes:
        step: Time-step index at which the failure occurred, or None when the
            failure is not tied to a particular step.
        block: Label of the failing operator (phase, heat, nutrient or
            terminal). Only block solves raise a SolverError, so every one
            names its block.
        sweep: The sweep that failed, "forward", "linearized" or
            "adjoint", set by the sweep function the error leaves; the
            message ends with it. None outside every sweep.
    """

    def __init__(self, message, step=None, block=None):
        super().__init__(message)
        self.step = step
        self.block = block
        self.sweep = None

    def __str__(self):
        message = super().__str__()
        if self.sweep is None:
            return message
        return f"{message} in the {self.sweep} sweep"


def names_sweep(sweep):
    """Decorate a sweep function so that a SolverError it raises carries
    ``sweep`` as its ``sweep`` attribute."""
    def decorate(function):
        @functools.wraps(function)
        def run(*args, **kwargs):
            try:
                return function(*args, **kwargs)
            except SolverError as exc:
                exc.sweep = sweep
                raise
        return run
    return decorate


class OptimizerError(RuntimeError):
    """Raised when the optimization loop cannot make a valid move.

    Distinct from ordinary stopping: hitting max_iters or the minimum step
    size is reported in the result, not raised.
    """
