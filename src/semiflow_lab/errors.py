"""Exception types shared across the laboratory modules, and the typed
checks that turn a malformed config value into ConfigError."""

import functools
import math


class SemiflowError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SemiflowError):
    """Evaluation requested outside the open unit disc (or an invalid radius)."""


class SingularityError(SemiflowError):
    """Evaluation at a declared singular point (guarded zero, pole, log branch point)."""


class EscapeError(SemiflowError):
    """ODE state reached the unit circle; a true semiflow never exits, so this
    always signals a tolerance/discretization failure and must be loud."""


class InverseError(SemiflowError):
    """Conformal-map inversion failed to converge or left the target domain."""


class ModelError(SemiflowError):
    """A flow model is inconsistent (spiral map not fixing 0, non-Mobius time-1 map, ...)."""


class NoConvergence(SemiflowError):
    """A radial/extrapolation ladder whose increments do not decay."""


class QuadratureError(SemiflowError):
    """A cocycle integral swelled far above its end value along the orbit."""


class MultiplicityError(SemiflowError):
    """Repeated zeros where a computation requires distinct ones."""


class HypothesisError(SemiflowError):
    """A required hypothesis (e.g. interpolation constant delta > 0) fails on the input."""


class CaseMismatch(SemiflowError):
    """The flow is of the wrong kind for the requested construction."""


class DepthExceeded(SemiflowError):
    """Double precision cannot separate further construction levels."""


class InterpolationError(SemiflowError):
    """A combined zero sequence fails the interpolation requirement."""


class BisectionError(SemiflowError):
    """The angle equation has no root in the allowed time window."""


class ConfigError(SemiflowError):
    """Malformed experiment configuration."""


def config_parser(parse):
    """Report a malformed JSON object handed to ``parse`` as ConfigError.

    A missing key, a wrong type or a bad value reaches a parser as KeyError,
    TypeError, IndexError or ValueError; the CLI maps ConfigError to exit
    code 2.  A ConfigError from a nested parser passes through unchanged.
    """

    @functools.wraps(parse)
    def parsed(*args):
        try:
            return parse(*args)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise ConfigError(f"{parse.__name__}: {type(exc).__name__}: {exc}") from exc

    return parsed


def config_number(key: str, v, least: float = -math.inf) -> float:
    """v as a float, once it is a finite JSON number >= least (a string or a
    bool is not a number)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v) or v < least:
        bound = f" >= {least}" if least > -math.inf else ""
        raise ConfigError(f"config key {key!r} must be a finite number{bound}, got {v!r}")
    return float(v)


def config_positive(key: str, v) -> float:
    """v as a float, once it is a finite JSON number > 0."""
    v = config_number(key, v)
    if v <= 0.0:
        raise ConfigError(f"config key {key!r} must be a finite number > 0, got {v!r}")
    return v


def config_integer(key: str, v, least: float = 1) -> int:
    """v as an int, once it is an integral JSON number >= least."""
    integral = isinstance(v, int) or isinstance(v, float) and v.is_integer()
    if isinstance(v, bool) or not integral or v < least:
        bound = f" >= {least}" if least > -math.inf else ""
        raise ConfigError(f"config key {key!r} must be an integer{bound}, got {v!r}")
    return int(v)


def config_flag(key: str, v) -> bool:
    """v, once it is a JSON true or false (a string or a number is not a flag)."""
    if not isinstance(v, bool):
        raise ConfigError(f"config key {key!r} must be true or false, got {v!r}")
    return v


def config_pair(key: str, v) -> complex:
    """v as a complex, once it is a [re, im] pair of finite numbers."""
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise ConfigError(f"config key {key!r} must be a [re, im] pair, got {v!r}")
    return complex(config_number(key, v[0]), config_number(key, v[1]))
