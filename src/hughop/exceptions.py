"""Exception types shared across the package, and the checks of config
numbers that raise :class:`ConfigError`."""

import numpy as np


class HugHopError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(HugHopError, ValueError):
    """An input vector does not match the target's dimension."""


class NonFiniteInputError(HugHopError, ValueError):
    """An input contains NaN or infinite entries."""


class NoHessianError(HugHopError, NotImplementedError):
    """The target does not provide a Hessian."""


class NoExactSamplerError(HugHopError, NotImplementedError):
    """The target does not support exact sampling."""


class FactorizationError(HugHopError, ValueError):
    """A matrix factorisation failed (non-PD input, singular system, ...)."""


class TrajectoryError(HugHopError, ArithmeticError):
    """A trajectory produced a non-finite state.

    ``step_index`` identifies the failing bounce / leapfrog step.
    """

    def __init__(self, message: str, step_index: int):
        super().__init__(f"{message} (step {step_index})")
        self.step_index = step_index


class ZeroGradientError(HugHopError, ValueError):
    """The raw gradient guard hit a (numerically) zero gradient."""


class DegenerateSeriesError(HugHopError, ValueError):
    """A series is too short or has zero variance for ESS estimation."""


class ConfigError(HugHopError, ValueError):
    """An experiment configuration failed validation.

    ``field`` names the offending entry, e.g. ``"kernels[0].T"``.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def config_number(value, field: str) -> float:
    """A config number as a float; anything else raises naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(field, f"must be a number, got {value!r}")
    return float(value)


def config_integer(value, field: str) -> int:
    """A config integer as an int; a non-integral number is an error, not truncated."""
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(field, f"must be an integer, got {value!r}")
    return int(value)
