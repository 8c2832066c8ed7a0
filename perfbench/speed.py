"""Wall time rescaled to a fixed machine speed.

The host this benchmark runs on shares its cores: the speed of the same
Python code drifts by a third over tens of seconds, so medians of raw wall
time from two runs of the same code can differ by more than any useful
bound.  A ``SpeedProbe`` samples that speed while an op runs, by timing a
short reference loop before the op, after it, and every ``INTERVAL_S`` in
between (from a ``SIGALRM`` handler), and rescales the op's wall time to the
speed at which the loop takes ``REF_SECONDS``:

    reference seconds = (wall time - time spent in the probe) * mean(REF_SECONDS / loop time)

which is the op's wall time on a machine running at that fixed speed.

The loop has two halves of about equal time, chosen because together they
slowed and sped up with the package's cocycle quadrature more closely than
either alone or than a tight arithmetic loop: an explicit midpoint integrator
over a small expression tree of objects (the package's expression trees and
DP5(4) steps in miniature), and NumPy passes over a 1 MiB complex array (its
grids).  The loop is this file's own code, so a change to the package cannot
change the reference.

Set-up time, which is mostly starting an interpreter and importing modules,
did not follow that loop; it followed the time to start a bare interpreter
(``python3 -c pass``).  ``spawn_speed`` times one, and set-up samples are
rescaled by it in the same way, to the speed at which that start takes
``REF_SPAWN_SECONDS``.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time

import numpy as np

# The loop's median duration on a 2-vCPU Xeon VM, so that reference seconds
# read about as the wall seconds there.
REF_SECONDS = 0.0025
INTERVAL_S = 0.1
# A bare interpreter start's median on the same VM.
REF_SPAWN_SECONDS = 0.07
_STEPS = 800


class _Var:
    __slots__ = ()

    def ev(self, z):
        return z


class _Const:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def ev(self, z):
        return self.c


class _Add:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def ev(self, z):
        return self.a.ev(z) + self.b.ev(z)


class _Mul(_Add):
    __slots__ = ()

    def ev(self, z):
        return self.a.ev(z) * self.b.ev(z)


_TREE = _Add(_Mul(_Var(), _Const(-1 + 0j)), _Mul(_Mul(_Var(), _Var()), _Const(0.01j)))
_GRID = np.linspace(0.0, 1.0, 1 << 16) * (1 + 1j)


def _reference_loop() -> float:
    z, h = 0.3 + 0.1j, 1e-3
    for _ in range(_STEPS):
        k = _TREE.ev(z)
        z += h * _TREE.ev(z + 0.5 * h * k)
    return abs(z) + float(np.abs(np.exp(_GRID)).sum())


def _loop_seconds() -> float:
    start = time.perf_counter()
    _reference_loop()
    return time.perf_counter() - start


def _speed_now(samples: int = 3) -> float:
    """The machine's speed relative to the reference, from a few back-to-back loops."""
    return REF_SECONDS / statistics.median(_loop_seconds() for _ in range(samples))


def spawn_speed() -> float:
    """The speed of starting a process relative to the reference, from one bare interpreter start."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return REF_SPAWN_SECONDS / (time.perf_counter() - start)


class SpeedProbe:
    """Context manager that times its body in reference seconds (``self.seconds``)."""

    def __init__(self):
        self.speeds = []
        self.probe_s = 0.0
        self.wall_s = 0.0
        self.seconds = 0.0

    def _sample(self, *_):
        start = time.perf_counter()
        self.speeds.append(REF_SECONDS / _loop_seconds())
        self.probe_s += time.perf_counter() - start

    def __enter__(self):
        self.speeds.append(_speed_now())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self.speeds.append(_speed_now())
        self.wall_s = end - self._start - self.probe_s
        self.seconds = self.wall_s * statistics.fmean(self.speeds)
        return False
