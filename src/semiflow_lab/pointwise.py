"""Helpers that let one code path take a single point or a batch of points.

Every layer that evaluates at points (expression trees, Blaschke products,
the integrator, flows, cocycles) accepts either a Python ``complex`` or a
complex ``ndarray`` and runs the same arithmetic on it.  A scalar stays a
Python complex throughout: a one-element array costs several times more per
arithmetic step than the number itself.

Value-dependent tests are written as masks (a ``bool`` for a scalar, a bool
array for a batch); ``raise_at`` names the first offending point, so a guard
raises the same typed error for a batch as for that point on its own.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

_ndarray = np.ndarray  # bound once: these helpers run on every scalar evaluation


def points(z):
    """z as a Python complex, or as a complex ndarray when it is an array."""
    if isinstance(z, _ndarray):
        return np.asarray(z, dtype=complex)
    return complex(z)


def full(like, value):
    """``value`` at every point of ``like``: the bare complex for a scalar; a
    value that is already an array is returned as it is."""
    if isinstance(like, _ndarray):
        return value if isinstance(value, _ndarray) else np.full(like.shape, value, dtype=complex)
    return complex(value)


def times(z, t):
    """(z, t) for a run from z to time t: a shared t as a float, or, for a time
    per point, z and t as complex and float ndarrays of one shape."""
    if not isinstance(t, _ndarray):
        return z, float(t)
    shape = np.broadcast_shapes(np.shape(z), t.shape)
    return np.broadcast_to(z, shape).astype(complex), np.broadcast_to(t, shape).astype(float)


def two_legs(z, s, t):
    """The runs z -> s and z -> s + t as one batch: the start [z, z] and its
    end times [s, s + t], for z, s and t broadcast to one shape."""
    z, s, t = np.broadcast_arrays(points(z), np.asarray(s, float), np.asarray(t, float))
    return np.stack([z, z]), np.stack([s, s + t])


def legs(y):
    """The two legs of a ``two_legs`` batch's result, each a Python complex for one point."""
    return points(y[0]), points(y[1])


def raise_at(mask, z, error, message: str, *args):
    """Raise ``error(message.format(p, *args))`` for the first point p of z where
    ``mask`` holds; an ndarray among ``args`` gives its entry at that point too.
    The message is only formatted when it is raised.  A mask array is tested
    with ``np.count_nonzero``, one C call, where ``mask.any()`` goes through a
    Python wrapper: a guard that holds nowhere, the usual case, costs little."""
    if isinstance(mask, _ndarray):
        if not np.count_nonzero(mask):
            return
        z, *args = (np.broadcast_to(a, mask.shape)[mask][0].item() if isinstance(a, _ndarray) else a
                    for a in (z, *args))
    elif not mask:
        return
    raise error(message.format(z, *args))


def nonfinite(w):
    """Mask of the points where w is infinite or nan."""
    if isinstance(w, _ndarray):
        return ~np.isfinite(w)
    return not cmath.isfinite(w)


def outside(w):
    """Mask of the points that are not strictly inside the unit disc (nan included)."""
    inside = abs(w) < 1.0
    if isinstance(inside, _ndarray):
        return ~inside
    return not inside


def where(mask, a, b):
    """a where ``mask`` holds, b elsewhere."""
    if isinstance(mask, _ndarray):
        return np.where(mask, a, b)
    return a if mask else b


def larger(a, b):
    """Pointwise maximum of two reals, or of two arrays of the same points."""
    if isinstance(a, _ndarray):
        return np.maximum(a, b)
    return max(a, b)


def exp(w):
    """Complex exponential; an overflow gives inf, which the finiteness check turns away."""
    if isinstance(w, _ndarray):
        with np.errstate(over="ignore", invalid="ignore"):
            return np.exp(w)
    try:
        return cmath.exp(w)
    except OverflowError:
        return complex(math.inf, math.inf)


def log(w):
    """Principal-branch logarithm."""
    if isinstance(w, _ndarray):
        return np.log(w)
    return cmath.log(w)
