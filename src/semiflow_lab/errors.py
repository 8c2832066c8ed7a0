"""Exception types shared across the laboratory modules, the typed checks
that turn a malformed config value into ConfigError, the ``record`` class
decorator, and ``json_form``, which writes the values those checks read."""

import functools
import math
import sys


# The largest integer a config may hold: each one is a count (points, samples, levels,
# grid points) that sizes work or memory; the largest in the shipped configs is 80.
COUNT_LIMIT = 10**5


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
    """v as an int, once it is an integral JSON number, least <= v <= COUNT_LIMIT."""
    integral = isinstance(v, int) or isinstance(v, float) and v.is_integer()
    if isinstance(v, bool) or not integral or not least <= v <= COUNT_LIMIT:
        bound = f" >= {least} and" if least > -math.inf else ""
        raise ConfigError(f"config key {key!r} must be an integer{bound} <= {COUNT_LIMIT}, got {v!r}")
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


_REQUIRED = object()  # the default of a field that has none


def _values(r) -> tuple:
    return tuple(getattr(r, key) for key in r._record_fields)


class _Record:
    """The methods ``record`` gives each record class."""

    def __init__(self, *args, **kwargs):
        fields, name = self._record_fields, type(self).__name__
        given = dict(zip(fields, args), **kwargs)  # a repeated or surplus argument makes it shorter
        if len(given) < len(args) + len(kwargs) or not given.keys() <= fields.keys():
            raise TypeError(f"{name}() takes the fields {list(fields)}, got {len(args)} by position "
                            f"and {list(kwargs)} by keyword")
        for key, default in fields.items():  # not through __dict__, which slows CPython attribute reads
            value = given.get(key, default)
            if value is _REQUIRED:
                raise TypeError(f"{name}() missing the field {key!r}")
            object.__setattr__(self, key, value)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __eq__(self, other):
        return _values(self) == _values(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(_values(self))

    def __repr__(self):
        fields = ", ".join(f"{key}={getattr(self, key)!r}" for key in self._record_fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, key, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {key!r}")

    __delattr__ = __setattr__


def record(cls):
    """``cls`` as an immutable record of its annotated fields, like a frozen dataclass.

    The fields are a record base's, then the class's own annotations, each with
    the class attribute of its name, if any, as its default.  ``__init__`` takes
    them by position or keyword and then runs ``__post_init__``, which may set
    a field through ``object.__setattr__``.  Records of one type are equal when
    their fields are, and hash as the tuple of their fields.
    """
    fields = dict(getattr(cls, "_record_fields", {}))
    fields.update((key, cls.__dict__.get(key, _REQUIRED)) for key in cls.__annotations__)
    cls._record_fields = fields  # name -> default
    for key in ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"):
        setattr(cls, key, _Record.__dict__[key])
    return cls


def json_form(value):
    """The JSON form of a config object, as the readers above take it back.

    A complex is a [re, im] pair, a tuple a list, and a dict has each value
    converted.  A record is its class's ``json_tag`` (e.g. ``{"op":
    "poly"}``), then each field under its own name; a class whose form is
    not its fields writes its own through ``to_json``.
    """
    if hasattr(value, "to_json"):
        return value.to_json()
    if hasattr(value, "_record_fields"):
        fields = {key: json_form(getattr(value, key)) for key in value._record_fields}
        return {**getattr(value, "json_tag", {}), **fields}
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (tuple, list)):
        return [json_form(v) for v in value]
    if isinstance(value, dict):
        return {k: json_form(v) for k, v in value.items()}
    return value
