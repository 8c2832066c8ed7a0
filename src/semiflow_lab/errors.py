"""Exception types shared across the laboratory modules, the typed checks
that turn a malformed config value into ConfigError, and ``json_form``,
which writes the values those checks read."""

import dataclasses
import functools
import math
import sys


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


def config_number(key: str, v, least: float = -math.inf, below: float = math.inf) -> float:
    """v as a float, once it is a finite JSON number, least <= v < below (not a string or a bool)."""
    finite = isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max
    if not finite or not least <= v < below:  # an int beyond every float is refused, not overflowed
        bound = " and".join(f" {op} {b}" for op, b in ((">=", least), ("<", below)) if math.isfinite(b))
        raise ConfigError(f"config key {key!r} must be a finite number{bound}, got {v!r}")
    return float(v)


def config_positive(key: str, v, below: float = math.inf) -> float:
    """v as a float, once it is a finite JSON number, 0 < v < below."""
    if config_number(key, v, below=below) <= 0.0:
        raise ConfigError(f"config key {key!r} must be a finite number > 0, got {v!r}")
    return float(v)


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


def config_numbers(key: str, v, count: int | None = None) -> list:
    """v as a list of floats, once it is a non-empty list of (``count``) finite numbers."""
    if not isinstance(v, list) or not v or count is not None and len(v) != count:
        raise ConfigError(f"config key {key!r} must be a list of {count or 'some'} numbers, got {v!r}")
    return [config_number(key, x) for x in v]


def config_object(key: str, v) -> dict:
    """v, once it is a JSON object."""
    if not isinstance(v, dict):
        raise ConfigError(f"config key {key!r} must be a JSON object, got {v!r}")
    return v


def json_form(value):
    """The JSON form of a config object, as the readers above take it back.

    A complex is a [re, im] pair, a tuple a list, and a dict has each value
    converted.  A dataclass is its class's ``json_tag`` (e.g. ``{"op":
    "poly"}``), then each field under its own name; a class whose form is
    not its fields writes its own through ``to_json``.
    """
    if hasattr(value, "to_json"):
        return value.to_json()
    if dataclasses.is_dataclass(value):
        fields = {f.name: json_form(getattr(value, f.name)) for f in dataclasses.fields(value)}
        return {**getattr(value, "json_tag", {}), **fields}
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (tuple, list)):
        return [json_form(v) for v in value]
    if isinstance(value, dict):
        return {k: json_form(v) for k, v in value.items()}
    return value
