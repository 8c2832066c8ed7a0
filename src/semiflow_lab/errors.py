"""Exception types shared across the laboratory modules."""

import functools


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
